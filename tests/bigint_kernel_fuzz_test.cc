// Seeded differential fuzz of the Montgomery kernels: the native-width
// context (64-bit limbs wherever __int128 exists) against the pinned
// 32-bit reference context and against a division-based oracle. Every
// operand class the kernels special-case is driven explicitly — 0, 1,
// m-1, dense-carry limbs (all-ones patterns that maximize carry ripple),
// non-reduced and negative inputs — over moduli from a single limb up to
// 2048 bits, for multiplication, the dedicated squaring and full
// exponentiation, and through the raw spans with aliased destinations.
// Deterministic seeds keep failures reproducible.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "bigint/fastexp.h"
#include "bigint/modular.h"

namespace secmed {
namespace {

// Division-based oracle, independent of every Montgomery code path.
BigInt NaiveModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return BigInt::Mod(BigInt::Mod(a, m).value() * BigInt::Mod(b, m).value(), m)
      .value();
}

BigInt NaiveModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt b = BigInt::Mod(base, m).value();
  BigInt result = BigInt::Mod(BigInt(1), m).value();
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = (result * result) % m;
    if (exp.TestBit(i)) result = (result * b) % m;
  }
  return result;
}

BigInt RandomBits(std::mt19937_64* rng, size_t bits) {
  if (bits == 0) return BigInt();
  std::vector<uint32_t> limbs((bits + 31) / 32);
  for (auto& l : limbs) l = static_cast<uint32_t>((*rng)());
  const size_t top_bits = bits % 32 == 0 ? 32 : bits % 32;
  limbs.back() &= top_bits == 32 ? ~0u : ((1u << top_bits) - 1);
  limbs.back() |= 1u << (top_bits - 1);
  return BigInt::FromLimbs(std::move(limbs));
}

// All-ones below the top bit: every limb product carries maximally.
BigInt DenseCarry(size_t bits) {
  return (BigInt(1) << bits) - BigInt(1);
}

// Odd modulus of exactly `bits` bits from the seeded stream.
BigInt RandomOddModulus(std::mt19937_64* rng, size_t bits) {
  BigInt m = RandomBits(rng, bits);
  if (m.is_even()) m += BigInt(1);
  return m;
}

// The modulus spectrum the kernels must agree on: single-limb (both
// widths), limb-boundary straddlers, and the maximum width the protocols
// use. 33/65 bits force a most-significant limb with one significant bit;
// dense moduli make the conditional subtraction borrow through every limb.
std::vector<BigInt> ModulusCorpus(std::mt19937_64* rng) {
  std::vector<BigInt> moduli;
  moduli.push_back(BigInt(3));
  moduli.push_back(BigInt(uint64_t{0xFFFFFFFBu}));  // largest 32-bit prime
  moduli.push_back(
      BigInt(uint64_t{0xFFFFFFFFFFFFFFC5ull}));     // largest 64-bit prime
  for (size_t bits : {33, 64, 65, 96, 127, 128, 256, 521, 1024, 2048}) {
    moduli.push_back(RandomOddModulus(rng, bits));
  }
  for (size_t bits : {64, 256, 2048}) {
    moduli.push_back(DenseCarry(bits));  // 2^bits - 1, odd and all-ones
  }
  return moduli;
}

// Operand classes per modulus: edges, dense-carry, non-reduced, negative,
// plus seeded random values at assorted widths.
std::vector<BigInt> OperandCorpus(std::mt19937_64* rng, const BigInt& m) {
  const size_t bits = m.BitLength();
  std::vector<BigInt> ops = {
      BigInt(0),
      BigInt(1),
      BigInt(2),
      m - BigInt(1),
      m,                         // non-reduced: must reduce, not truncate
      m + BigInt(1),             // non-reduced
      m * m - BigInt(1),         // far wider than the modulus
      BigInt(-5),                // negative: mathematical-mod semantics
      BigInt::Mod(DenseCarry(bits), m).value(),
  };
  for (size_t i = 1; i <= 3; ++i) {
    ops.push_back(BigInt::Mod(RandomBits(rng, bits + 7 * i), m).value());
  }
  return ops;
}

TEST(KernelFuzz, MulMatchesReferenceAndOracle) {
  std::mt19937_64 rng(0xC0FFEE01);
  for (const BigInt& m : ModulusCorpus(&rng)) {
    SCOPED_TRACE("m=" + m.ToHex());
    auto ctx = MontgomeryContext::Create(m).value();
    auto ref = MontgomeryContextRef32::Create(m).value();
    const std::vector<BigInt> ops = OperandCorpus(&rng, m);
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t j = i; j < ops.size(); ++j) {
        const BigInt expect = NaiveModMul(ops[i], ops[j], m);
        EXPECT_EQ(ctx.Mul(ops[i], ops[j]), expect)
            << "native a=" << ops[i] << " b=" << ops[j];
        EXPECT_EQ(ref.Mul(ops[i], ops[j]), expect)
            << "ref32 a=" << ops[i] << " b=" << ops[j];
      }
    }
  }
}

TEST(KernelFuzz, SqrMatchesMulAndOracle) {
  std::mt19937_64 rng(0xC0FFEE02);
  for (const BigInt& m : ModulusCorpus(&rng)) {
    SCOPED_TRACE("m=" + m.ToHex());
    auto ctx = MontgomeryContext::Create(m).value();
    auto ref = MontgomeryContextRef32::Create(m).value();
    for (const BigInt& a : OperandCorpus(&rng, m)) {
      const BigInt expect = NaiveModMul(a, a, m);
      EXPECT_EQ(ctx.Sqr(a), expect) << "native a=" << a;
      EXPECT_EQ(ref.Sqr(a), expect) << "ref32 a=" << a;
      EXPECT_EQ(ctx.Sqr(a), ctx.Mul(a, a)) << "sqr != mul(a,a), a=" << a;
    }
  }
}

TEST(KernelFuzz, ExpMatchesReferenceAndOracle) {
  std::mt19937_64 rng(0xC0FFEE03);
  for (const BigInt& m : ModulusCorpus(&rng)) {
    if (m.BitLength() > 521) continue;  // keep the n^3 oracle affordable
    SCOPED_TRACE("m=" + m.ToHex());
    auto ctx = MontgomeryContext::Create(m).value();
    auto ref = MontgomeryContextRef32::Create(m).value();
    const std::vector<BigInt> exps = {
        BigInt(0), BigInt(1), BigInt(2), BigInt(3),
        m - BigInt(1),  // full-length exponent
        DenseCarry(m.BitLength()),  // all-ones: every window multiplies
        BigInt::Mod(RandomBits(&rng, m.BitLength()), m).value(),
    };
    const std::vector<BigInt> bases = {
        BigInt(0), BigInt(1), BigInt(2), m - BigInt(1),
        m + BigInt(2),  // non-reduced base
        BigInt::Mod(RandomBits(&rng, m.BitLength()), m).value(),
    };
    for (const BigInt& base : bases) {
      for (const BigInt& e : exps) {
        const BigInt expect = NaiveModExp(base, e, m);
        EXPECT_EQ(ctx.Exp(base, e), expect)
            << "native base=" << base << " e=" << e;
        EXPECT_EQ(ref.Exp(base, e), expect)
            << "ref32 base=" << base << " e=" << e;
      }
    }
  }
}

TEST(KernelFuzz, ExpAgreesAcrossWindowSizes) {
  // The recoded loop must give one answer regardless of window choice —
  // exercises every odd-power table size the production recoder can pick.
  std::mt19937_64 rng(0xC0FFEE04);
  const BigInt m = RandomOddModulus(&rng, 256);
  auto ctx = MontgomeryContext::Create(m).value();
  const BigInt base = BigInt::Mod(RandomBits(&rng, 256), m).value();
  const BigInt e = RandomBits(&rng, 256);
  const BigInt expect = NaiveModExp(base, e, m);
  for (int w = 1; w <= 8; ++w) {
    EXPECT_EQ(ctx.ExpWithRecoding(base,
                                  ExponentRecoding::CreateWithWindow(e, w)),
              expect)
        << "window=" << w;
  }
}

TEST(KernelFuzz, RandomizedMulSweep) {
  // Pure random sweep on top of the structured corpus: fresh moduli and
  // operands every iteration, still fully seeded. Every fourth modulus has
  // one of the widths the protocols run at (the 512-bit group, RSA and
  // Paillier halves, Paillier's n²).
  std::mt19937_64 rng(0xC0FFEE05);
  std::uniform_int_distribution<size_t> bit_dist(2, 2048);
  const size_t protocol_bits[] = {512, 1024, 2048};
  for (int iter = 0; iter < 240; ++iter) {
    const size_t bits =
        iter % 4 == 3 ? protocol_bits[(iter / 4) % 3] : bit_dist(rng);
    const BigInt m = RandomOddModulus(&rng, bits);
    auto ctx = MontgomeryContext::Create(m).value();
    auto ref = MontgomeryContextRef32::Create(m).value();
    const BigInt a = BigInt::Mod(RandomBits(&rng, m.BitLength() + 11), m).value();
    const BigInt b = BigInt::Mod(RandomBits(&rng, m.BitLength() + 3), m).value();
    const BigInt expect = NaiveModMul(a, b, m);
    const BigInt square = NaiveModMul(a, a, m);
    ASSERT_EQ(ctx.Mul(a, b), expect) << "iter=" << iter << " m=" << m.ToHex();
    ASSERT_EQ(ref.Mul(a, b), expect) << "iter=" << iter << " m=" << m.ToHex();
    ASSERT_EQ(ctx.Sqr(a), square) << "iter=" << iter << " m=" << m.ToHex();
    ASSERT_EQ(ref.Sqr(a), square) << "iter=" << iter << " m=" << m.ToHex();
  }
}

TEST(KernelFuzz, RawSpanAliasingMatchesOracle) {
  // The product-scanning kernels read their inputs up to the last column,
  // so a destination that aliases an input is the case they could get
  // wrong. Drive the raw spans at 8, 16 and 32 native limbs with dst == a
  // == b, dst == a and dst == b, each with exactly scratch_limbs() of
  // scratch, and compare with the division oracle.
  using Limb = MontgomeryContext::Limb;
  std::mt19937_64 rng(0xC0FFEE06);
  for (size_t limbs : {8, 16, 32}) {
    const size_t bits = limbs * MontgomeryContext::kLimbBits;
    for (const BigInt& m : {RandomOddModulus(&rng, bits), DenseCarry(bits),
                            RandomOddModulus(&rng, bits - 1)}) {
      SCOPED_TRACE("m=" + m.ToHex());
      auto ctx = MontgomeryContext::Create(m).value();
      const size_t n = ctx.limb_count();
      std::vector<Limb> x(n), y(n), scratch(ctx.scratch_limbs());
      auto check = [&](const std::vector<Limb>& mont, const BigInt& expect,
                       const char* what) {
        std::vector<Limb> plain(n);
        ctx.FromMontInto(plain.data(), mont.data(), scratch.data());
        EXPECT_EQ(ctx.LimbsToBigInt(plain.data()), expect) << what;
      };
      std::vector<BigInt> ops = {BigInt(0), BigInt(1), m - BigInt(1),
                                 BigInt::Mod(DenseCarry(bits), m).value()};
      for (int i = 0; i < 8; ++i) {
        ops.push_back(BigInt::Mod(RandomBits(&rng, bits + 5), m).value());
      }
      for (size_t i = 0; i < ops.size(); ++i) {
        const BigInt& a = ops[i];
        const BigInt& b = ops[(i + 1) % ops.size()];
        ctx.ToMontInto(x.data(), a, scratch.data());
        ctx.MontMulInto(x.data(), x.data(), x.data(), scratch.data());
        check(x, NaiveModMul(a, a, m), "mul dst == a == b");
        ctx.ToMontInto(x.data(), a, scratch.data());
        ctx.MontSqrInto(x.data(), x.data(), scratch.data());
        check(x, NaiveModMul(a, a, m), "sqr dst == a");
        ctx.ToMontInto(x.data(), a, scratch.data());
        ctx.ToMontInto(y.data(), b, scratch.data());
        ctx.MontMulInto(x.data(), x.data(), y.data(), scratch.data());
        check(x, NaiveModMul(a, b, m), "mul dst == a");
        ctx.ToMontInto(x.data(), a, scratch.data());
        ctx.MontMulInto(y.data(), x.data(), y.data(), scratch.data());
        check(y, NaiveModMul(a, b, m), "mul dst == b");
      }
    }
  }
}

}  // namespace
}  // namespace secmed
