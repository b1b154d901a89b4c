#ifndef SECMED_BIGINT_MODULAR_H_
#define SECMED_BIGINT_MODULAR_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/mont_kernel.h"
#include "util/result.h"

namespace secmed {

class ExponentRecoding;  // bigint/fastexp.h

/// Greatest common divisor of |a| and |b|; Gcd(0, 0) == 0.
BigInt Gcd(const BigInt& a, const BigInt& b);

/// Least common multiple of |a| and |b|.
BigInt Lcm(const BigInt& a, const BigInt& b);

/// Extended Euclid: returns (g, x, y) such that a*x + b*y == g == gcd(a, b).
struct ExtendedGcdResult {
  BigInt g;
  BigInt x;
  BigInt y;
};
ExtendedGcdResult ExtendedGcd(const BigInt& a, const BigInt& b);

/// Modular inverse of a modulo m (m > 1). Fails with kInvalidArgument when
/// gcd(a, m) != 1.
Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

/// (a * b) mod m with m > 0; inputs are reduced first.
Result<BigInt> ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

/// base^exp mod m for exp >= 0 and m > 0. Uses Montgomery exponentiation
/// with a sliding window when m is odd; falls back to division-based
/// reduction otherwise.
Result<BigInt> ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);

/// Precomputed Montgomery domain for a fixed odd modulus. Amortizes the
/// setup cost across many multiplications/exponentiations with the same
/// modulus — the hot path of Paillier and commutative encryption.
///
/// Two API layers:
///  - BigInt boundary (ToMont/FromMont/Mul/Sqr/Exp...): convenient,
///    converts per call. Inputs outside [0, m) are reduced on entry, never
///    silently truncated.
///  - Raw limb spans (MontMulInto/MontSqrInto/ExpMontInto + the
///    conversion helpers): values live as `limb_count()` native limbs in
///    the Montgomery domain, operations run allocation-free against
///    caller-owned scratch. The exponentiation loops and the hot crypto
///    call sites hold raw limbs end-to-end and cross the BigInt boundary
///    exactly once per value.
///
/// The native limb width is 64 bits with __int128 accumulation where the
/// compiler provides it, 32 bits otherwise (see bigint/mont_kernel.h).
class MontgomeryContext {
 public:
  using Limb = montk::Limb;
  static constexpr int kLimbBits = montk::kBits<Limb>;

  /// Creates a context. The modulus must be odd and > 1.
  static Result<MontgomeryContext> Create(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  // ----------------------------------------------------- BigInt boundary

  /// Converts into the Montgomery domain: x * R mod m.
  BigInt ToMont(const BigInt& x) const;
  /// Converts out of the Montgomery domain: x * R^-1 mod m.
  BigInt FromMont(const BigInt& x) const;
  /// Montgomery product of two values already in the Montgomery domain.
  BigInt MulMont(const BigInt& a, const BigInt& b) const;
  /// Ordinary modular product of two values in the normal domain.
  BigInt Mul(const BigInt& a, const BigInt& b) const;
  /// a^2 mod m in the normal domain (dedicated squaring kernel).
  BigInt Sqr(const BigInt& a) const;
  /// base^exp mod m; base and result in the normal domain. exp >= 0.
  BigInt Exp(const BigInt& base, const BigInt& exp) const;
  /// base^exp mod m with the exponent recoded ahead of time. For fixed
  /// exponents (Pohlig–Hellman keys, CRT exponents, Paillier n) this skips
  /// the per-call window scan and uses the recoding's tuned window size.
  BigInt ExpWithRecoding(const BigInt& base, const ExponentRecoding& rec) const;

  /// Montgomery representation of 1 (R mod m); seed for accumulators.
  const BigInt& MontOne() const { return one_mont_; }

  // ----------------------------------------------------- raw limb spans

  /// Limbs per value in this context (ceil(bits(m) / kLimbBits)).
  size_t limb_count() const { return n_; }
  /// Scratch limbs every raw-span operation below needs: the product-
  /// scanning kernels keep each column in registers and only store the n
  /// reduction digits u_k, which the result limbs then overwrite.
  size_t scratch_limbs() const { return n_; }

  /// dst = a·b·R^-1 mod m over raw spans, all limb_count() limbs, a and b
  /// in the Montgomery domain and < m. scratch holds scratch_limbs().
  /// dst may alias a and/or b.
  void MontMulInto(Limb* dst, const Limb* a, const Limb* b,
                   Limb* scratch) const {
    montk::MulInto(dst, a, b, mod_.data(), inv_, n_, scratch);
  }
  /// dst = a²·R^-1 mod m (dedicated squaring: symmetric partial products
  /// summed once per column and doubled). dst may alias a.
  void MontSqrInto(Limb* dst, const Limb* a, Limb* scratch) const {
    montk::SqrInto(dst, a, mod_.data(), inv_, n_, scratch);
  }
  /// Packs x into the Montgomery domain: dst = x·R mod m. x is reduced
  /// mod m first (negative or oversized inputs are handled, not
  /// truncated). scratch holds scratch_limbs().
  void ToMontInto(Limb* dst, const BigInt& x, Limb* scratch) const;
  /// dst = a·R^-1 mod m: out of the Montgomery domain, still raw limbs.
  void FromMontInto(Limb* dst, const Limb* a, Limb* scratch) const {
    montk::MulInto(dst, a, unit_.data(), mod_.data(), inv_, n_, scratch);
  }
  /// Reads raw limbs (any domain) back into a BigInt.
  BigInt LimbsToBigInt(const Limb* a) const;

  /// acc = base_mont^rec, everything in the Montgomery domain. The odd
  /// -power table and all scratch live in *work (resized once, reused
  /// across calls); the per-step squarings and multiplies are
  /// allocation-free. acc holds limb_count() limbs and may alias base_mont
  /// (the base is copied into the power table before acc is written).
  void ExpMontInto(Limb* acc, const Limb* base_mont,
                   const ExponentRecoding& rec, std::vector<Limb>* work) const;

  /// R mod m as raw limbs (Montgomery representation of 1).
  const std::vector<Limb>& MontOneLimbs() const { return one_; }
  /// R^2 mod m as raw limbs (multiply by this to enter the domain).
  const std::vector<Limb>& R2Limbs() const { return r2_; }

 private:
  MontgomeryContext() = default;

  BigInt modulus_;
  BigInt one_mont_;         // R mod m (Montgomery representation of 1)
  std::vector<Limb> mod_;   // modulus, exactly n limbs
  std::vector<Limb> r2_;    // R^2 mod m
  std::vector<Limb> one_;   // R mod m
  std::vector<Limb> unit_;  // plain 1 (FromMont multiplies by it)
  size_t n_ = 0;            // limb count of the modulus
  Limb inv_ = 0;            // -modulus^{-1} mod 2^kLimbBits
};

/// 32-bit reference Montgomery context. Same math as MontgomeryContext but
/// pinned to the uint32_t kernel instantiation regardless of the native
/// limb width. Exists so the 64-bit kernel stays differentially testable
/// against an independent limb layout (tests/bigint_kernel_fuzz_test.cc);
/// not for production use.
class MontgomeryContextRef32 {
 public:
  static Result<MontgomeryContextRef32> Create(const BigInt& modulus);

  BigInt Mul(const BigInt& a, const BigInt& b) const;
  BigInt Sqr(const BigInt& a) const;
  BigInt Exp(const BigInt& base, const BigInt& exp) const;
  BigInt ExpWithRecoding(const BigInt& base, const ExponentRecoding& rec) const;

 private:
  MontgomeryContextRef32() = default;

  BigInt modulus_;
  std::vector<uint32_t> mod_;
  std::vector<uint32_t> r2_;
  std::vector<uint32_t> one_;
  std::vector<uint32_t> unit_;
  size_t n_ = 0;
  uint32_t inv_ = 0;
};

}  // namespace secmed

#endif  // SECMED_BIGINT_MODULAR_H_
