#include "bigint/modular.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "bigint/fastexp.h"

namespace secmed {

BigInt Lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  BigInt g = Gcd(a, b);
  return (a.Abs() / g) * b.Abs();
}

ExtendedGcdResult ExtendedGcd(const BigInt& a, const BigInt& b) {
  // Iterative extended Euclid over signed BigInts.
  BigInt old_r = a, r = b;
  BigInt old_s = 1, s = 0;
  BigInt old_t = 0, t = 1;
  while (!r.is_zero()) {
    auto qr = BigInt::DivMod(old_r, r);
    assert(qr.ok());
    BigInt q = qr.value().first;
    BigInt tmp = old_r - q * r;
    old_r = r;
    r = tmp;
    tmp = old_s - q * s;
    old_s = s;
    s = tmp;
    tmp = old_t - q * t;
    old_t = t;
    t = tmp;
  }
  return {old_r, old_s, old_t};
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) return Status::InvalidArgument("modulus must be > 1");
  SECMED_ASSIGN_OR_RETURN(BigInt ar, BigInt::Mod(a, m));
  ExtendedGcdResult e = ExtendedGcd(ar, m);
  if (e.g != BigInt(1)) {
    return Status::InvalidArgument("value is not invertible modulo m");
  }
  return BigInt::Mod(e.x, m);
}

Result<BigInt> ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  SECMED_ASSIGN_OR_RETURN(BigInt ar, BigInt::Mod(a, m));
  SECMED_ASSIGN_OR_RETURN(BigInt br, BigInt::Mod(b, m));
  return BigInt::Mod(ar * br, m);
}

namespace {
// Plain square-and-multiply with division-based reduction, used for even
// moduli (rare path).
Result<BigInt> ModExpGeneric(const BigInt& base, const BigInt& exp,
                             const BigInt& m) {
  SECMED_ASSIGN_OR_RETURN(BigInt b, BigInt::Mod(base, m));
  BigInt result = BigInt::Mod(BigInt(1), m).value();
  const size_t bits = exp.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = (result * result) % m;
    if (exp.TestBit(i)) result = (result * b) % m;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Shared limb-level plumbing for both limb widths. MontgomeryContext
// instantiates this with the native Limb; MontgomeryContextRef32 pins it to
// uint32_t so the two kernels stay differentially testable against each
// other regardless of the host.

/// BigInt u32 limbs -> L limbs, exactly n entries. For 64-bit limbs each
/// pair of u32 limbs packs into one; the value must already be < 2^(n*B).
template <typename L>
std::vector<L> PackLimbs(const BigInt& x, size_t n) {
  const std::vector<uint32_t>& src = x.limbs();
  std::vector<L> out(n, 0);
  if constexpr (sizeof(L) == 8) {
    for (size_t i = 0; i < src.size(); ++i) {
      out[i / 2] |= static_cast<L>(src[i]) << (32 * (i % 2));
    }
  } else {
    for (size_t i = 0; i < src.size(); ++i) out[i] = src[i];
  }
  return out;
}

/// L limbs -> BigInt, through the u32 limb constructor (no byte strings).
template <typename L>
BigInt UnpackLimbs(const L* a, size_t n) {
  std::vector<uint32_t> out;
  if constexpr (sizeof(L) == 8) {
    out.resize(n * 2);
    for (size_t i = 0; i < n; ++i) {
      out[2 * i] = static_cast<uint32_t>(a[i]);
      out[2 * i + 1] = static_cast<uint32_t>(a[i] >> 32);
    }
  } else {
    out.assign(a, a + n);
  }
  return BigInt::FromLimbs(std::move(out));
}

/// Reduces x into [0, m) first — this is what fixes the old PadLimbs
/// truncation bug: operands wider than the modulus (or negative) are
/// reduced, never silently chopped to n limbs.
template <typename L>
std::vector<L> PackReduced(const BigInt& x, const BigInt& m, size_t n) {
  if (x.is_negative() || x >= m) {
    return PackLimbs<L>(BigInt::Mod(x, m).value(), n);
  }
  return PackLimbs<L>(x, n);
}

template <typename L>
struct RawParts {
  std::vector<L> mod, r2, one, unit;
  size_t n = 0;
  L inv = 0;
};

/// Non-owning view of a context's precomputed limb vectors; what the shared
/// impl helpers actually operate on (no copies at the call sites).
template <typename L>
struct RawView {
  const L* mod;
  const L* r2;
  const L* one;
  const L* unit;
  size_t n;
  L inv;
};

template <typename L>
RawParts<L> BuildRawParts(const BigInt& modulus, BigInt* one_mont_out) {
  constexpr int B = montk::kBits<L>;
  RawParts<L> p;
  p.n = (modulus.BitLength() + B - 1) / B;
  p.mod = PackLimbs<L>(modulus, p.n);
  p.inv = montk::NegInvLimb<L>(p.mod[0]);
  const BigInt r = BigInt(1) << (static_cast<size_t>(B) * p.n);
  const BigInt one_mont = BigInt::Mod(r, modulus).value();
  p.one = PackLimbs<L>(one_mont, p.n);
  p.r2 = PackLimbs<L>(BigInt::Mod(one_mont * one_mont, modulus).value(), p.n);
  p.unit.assign(p.n, 0);
  p.unit[0] = 1;
  if (one_mont_out != nullptr) *one_mont_out = one_mont;
  return p;
}

/// a * b mod m (normal domain): two kernel calls — ab·R^-1, then ×R² — so
/// no ToMont conversion of either operand is needed.
template <typename L>
BigInt MulImpl(const RawView<L>& p, const BigInt& modulus, const BigInt& a,
               const BigInt& b) {
  std::vector<L> av = PackReduced<L>(a, modulus, p.n);
  std::vector<L> bv = PackReduced<L>(b, modulus, p.n);
  std::vector<L> t(p.n);
  montk::MulInto(av.data(), av.data(), bv.data(), p.mod, p.inv, p.n,
                 t.data());
  montk::MulInto(av.data(), av.data(), p.r2, p.mod, p.inv, p.n,
                 t.data());
  return UnpackLimbs(av.data(), p.n);
}

template <typename L>
BigInt SqrImpl(const RawView<L>& p, const BigInt& modulus, const BigInt& a) {
  std::vector<L> av = PackReduced<L>(a, modulus, p.n);
  std::vector<L> scratch(p.n);
  montk::SqrInto(av.data(), av.data(), p.mod, p.inv, p.n,
                 scratch.data());
  montk::MulInto(av.data(), av.data(), p.r2, p.mod, p.inv, p.n,
                 scratch.data());
  return UnpackLimbs(av.data(), p.n);
}

/// acc = base_mont^rec in the Montgomery domain, allocation-free per step.
/// Layout of *work: [odd-power table: odd_count*n][base²: n][scratch: n].
template <typename L>
void ExpMontImpl(const RawView<L>& p, L* acc, const L* base_mont,
                 const ExponentRecoding& rec, std::vector<L>* work) {
  const size_t n = p.n;
  if (rec.steps().empty()) {  // exponent was zero
    for (size_t i = 0; i < n; ++i) acc[i] = p.one[i];
    return;
  }
  const size_t odd_count = static_cast<size_t>(1) << (rec.window_bits() - 1);
  work->resize((odd_count + 2) * n);
  L* odd = work->data();
  L* base_sq = odd + odd_count * n;
  L* scratch = base_sq + n;

  // odd[k] = base^(2k+1), Montgomery domain.
  for (size_t i = 0; i < n; ++i) odd[i] = base_mont[i];
  if (odd_count > 1) {
    montk::SqrInto(base_sq, base_mont, p.mod, p.inv, n, scratch);
    for (size_t k = 1; k < odd_count; ++k) {
      montk::MulInto(odd + k * n, odd + (k - 1) * n, base_sq, p.mod,
                     p.inv, n, scratch);
    }
  }

  // The accumulator starts as the first step's digit: squaring 1 is free.
  const L* first = odd + (rec.steps()[0].digit >> 1) * n;
  for (size_t i = 0; i < n; ++i) acc[i] = first[i];
  for (size_t s = 1; s < rec.steps().size(); ++s) {
    const ExponentRecoding::Step& step = rec.steps()[s];
    for (uint32_t k = 0; k < step.squarings; ++k) {
      montk::SqrInto(acc, acc, p.mod, p.inv, n, scratch);
    }
    montk::MulInto(acc, acc, odd + (step.digit >> 1) * n, p.mod, p.inv,
                   n, scratch);
  }
  for (uint32_t k = 0; k < rec.trailing_squarings(); ++k) {
    montk::SqrInto(acc, acc, p.mod, p.inv, n, scratch);
  }
}

/// base^rec mod m, BigInt boundary crossed exactly once per side.
template <typename L>
BigInt ExpImpl(const RawView<L>& p, const BigInt& modulus, const BigInt& base,
               const ExponentRecoding& rec) {
  const size_t n = p.n;
  std::vector<L> base_mont = PackReduced<L>(base, modulus, n);
  std::vector<L> scratch(n);
  montk::MulInto(base_mont.data(), base_mont.data(), p.r2, p.mod,
                 p.inv, n, scratch.data());
  std::vector<L> acc(n);
  std::vector<L> work;
  ExpMontImpl(p, acc.data(), base_mont.data(), rec, &work);
  montk::MulInto(acc.data(), acc.data(), p.unit, p.mod, p.inv, n,
                 scratch.data());
  return UnpackLimbs(acc.data(), n);
}

/// Shifts the nonzero value v (*n significant limbs) right past its
/// trailing zero bits, zeroing the limbs it vacates; returns the shift and
/// leaves *n at the result's significant limb count.
size_t ShiftOutZeros(uint64_t* v, size_t* n) {
  size_t limbs = 0;
  while (v[limbs] == 0) ++limbs;
  const int bits = std::countr_zero(v[limbs]);
  for (size_t i = limbs; i < *n; ++i) {
    uint64_t x = v[i] >> bits;
    if (bits != 0 && i + 1 < *n) x |= v[i + 1] << (64 - bits);
    v[i - limbs] = x;
  }
  for (size_t i = *n - limbs; i < *n; ++i) v[i] = 0;
  *n -= limbs;
  while (v[*n - 1] == 0) --*n;
  return limbs * 64 + static_cast<size_t>(bits);
}
}  // namespace

BigInt Gcd(const BigInt& a, const BigInt& b) {
  if (a.is_zero()) return b.Abs();
  if (b.is_zero()) return a.Abs();
  // Binary GCD (Stein) over 64-bit limbs: take out the common power of
  // two, then subtract the smaller odd value from the larger and shift
  // out the difference's factors of two until it reaches zero.
  size_t nx = (a.limbs().size() + 1) / 2;
  size_t ny = (b.limbs().size() + 1) / 2;
  const size_t width = std::max(nx, ny);
  std::vector<uint64_t> x = PackLimbs<uint64_t>(a, width);
  std::vector<uint64_t> y = PackLimbs<uint64_t>(b, width);
  const size_t shift = std::min(ShiftOutZeros(x.data(), &nx),
                                ShiftOutZeros(y.data(), &ny));
  for (;;) {
    if (nx > ny || (nx == ny && montk::GeN(x.data(), y.data(), nx))) {
      std::swap(x, y);
      std::swap(nx, ny);
    }
    montk::SubN(y.data(), y.data(), x.data(), ny);  // y >= x, both odd
    while (ny > 0 && y[ny - 1] == 0) --ny;
    if (ny == 0) break;
    ShiftOutZeros(y.data(), &ny);
  }
  return UnpackLimbs(x.data(), nx) << shift;
}

Result<BigInt> ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  if (exp.is_negative()) {
    return Status::InvalidArgument("negative exponent; invert base first");
  }
  if (m == BigInt(1)) return BigInt(0);
  if (m.is_odd()) {
    SECMED_ASSIGN_OR_RETURN(MontgomeryContext ctx, MontgomeryContext::Create(m));
    return ctx.Exp(base, exp);
  }
  return ModExpGeneric(base, exp, m);
}

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (modulus <= BigInt(1) || modulus.is_even()) {
    return Status::InvalidArgument("Montgomery modulus must be odd and > 1");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  RawParts<Limb> p = BuildRawParts<Limb>(modulus, &ctx.one_mont_);
  ctx.mod_ = std::move(p.mod);
  ctx.r2_ = std::move(p.r2);
  ctx.one_ = std::move(p.one);
  ctx.unit_ = std::move(p.unit);
  ctx.n_ = p.n;
  ctx.inv_ = p.inv;
  return ctx;
}

namespace {
template <typename L>
RawView<L> PartsView(const std::vector<L>& mod, const std::vector<L>& r2,
                     const std::vector<L>& one, const std::vector<L>& unit,
                     size_t n, L inv) {
  return RawView<L>{mod.data(), r2.data(), one.data(), unit.data(), n, inv};
}
}  // namespace

void MontgomeryContext::ToMontInto(Limb* dst, const BigInt& x,
                                   Limb* scratch) const {
  std::vector<Limb> xv = PackReduced<Limb>(x, modulus_, n_);
  montk::MulInto(dst, xv.data(), r2_.data(), mod_.data(), inv_, n_, scratch);
}

BigInt MontgomeryContext::LimbsToBigInt(const Limb* a) const {
  return UnpackLimbs(a, n_);
}

BigInt MontgomeryContext::ToMont(const BigInt& x) const {
  std::vector<Limb> out(n_);
  std::vector<Limb> scratch(n_);
  ToMontInto(out.data(), x, scratch.data());
  return UnpackLimbs(out.data(), n_);
}

BigInt MontgomeryContext::FromMont(const BigInt& x) const {
  std::vector<Limb> xv = PackReduced<Limb>(x, modulus_, n_);
  std::vector<Limb> scratch(n_);
  FromMontInto(xv.data(), xv.data(), scratch.data());
  return UnpackLimbs(xv.data(), n_);
}

BigInt MontgomeryContext::MulMont(const BigInt& a, const BigInt& b) const {
  std::vector<Limb> av = PackReduced<Limb>(a, modulus_, n_);
  std::vector<Limb> bv = PackReduced<Limb>(b, modulus_, n_);
  std::vector<Limb> scratch(n_);
  MontMulInto(av.data(), av.data(), bv.data(), scratch.data());
  return UnpackLimbs(av.data(), n_);
}

BigInt MontgomeryContext::Mul(const BigInt& a, const BigInt& b) const {
  return MulImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), modulus_, a, b);
}

BigInt MontgomeryContext::Sqr(const BigInt& a) const {
  return SqrImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), modulus_, a);
}

BigInt MontgomeryContext::Exp(const BigInt& base, const BigInt& exp) const {
  assert(!exp.is_negative());
  return ExpWithRecoding(base, ExponentRecoding::Create(exp));
}

BigInt MontgomeryContext::ExpWithRecoding(const BigInt& base,
                                          const ExponentRecoding& rec) const {
  return ExpImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), modulus_, base,
                 rec);
}

void MontgomeryContext::ExpMontInto(Limb* acc, const Limb* base_mont,
                                    const ExponentRecoding& rec,
                                    std::vector<Limb>* work) const {
  ExpMontImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), acc, base_mont, rec,
              work);
}

Result<MontgomeryContextRef32> MontgomeryContextRef32::Create(
    const BigInt& modulus) {
  if (modulus <= BigInt(1) || modulus.is_even()) {
    return Status::InvalidArgument("Montgomery modulus must be odd and > 1");
  }
  MontgomeryContextRef32 ctx;
  ctx.modulus_ = modulus;
  RawParts<uint32_t> p = BuildRawParts<uint32_t>(modulus, nullptr);
  ctx.mod_ = std::move(p.mod);
  ctx.r2_ = std::move(p.r2);
  ctx.one_ = std::move(p.one);
  ctx.unit_ = std::move(p.unit);
  ctx.n_ = p.n;
  ctx.inv_ = p.inv;
  return ctx;
}

BigInt MontgomeryContextRef32::Mul(const BigInt& a, const BigInt& b) const {
  return MulImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), modulus_, a, b);
}

BigInt MontgomeryContextRef32::Sqr(const BigInt& a) const {
  return SqrImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), modulus_, a);
}

BigInt MontgomeryContextRef32::Exp(const BigInt& base,
                                   const BigInt& exp) const {
  assert(!exp.is_negative());
  return ExpWithRecoding(base, ExponentRecoding::Create(exp));
}

BigInt MontgomeryContextRef32::ExpWithRecoding(
    const BigInt& base, const ExponentRecoding& rec) const {
  return ExpImpl(PartsView(mod_, r2_, one_, unit_, n_, inv_), modulus_, base,
                 rec);
}

}  // namespace secmed
