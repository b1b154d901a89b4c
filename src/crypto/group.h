#ifndef SECMED_CRYPTO_GROUP_H_
#define SECMED_CRYPTO_GROUP_H_

#include <memory>

#include "bigint/bigint.h"
#include "bigint/fastexp.h"
#include "bigint/modular.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// The group of quadratic residues modulo a safe prime p = 2q + 1.
///
/// QR(p) is cyclic of prime order q, which makes exponentiation a
/// commutative encryption function on it (Section 4 of the paper, after
/// Agrawal et al.). HashToGroup instantiates the "ideal hash function"
/// assumption: SHA-256 output is expanded, reduced mod p and squared, which
/// lands uniformly in QR(p) under the random-oracle model.
class QrGroup {
 public:
  /// Validates that `safe_prime` is a safe prime (both p and (p-1)/2 pass
  /// Miller–Rabin) and builds the group. Pass `check_primality = false`
  /// for trusted, precomputed parameters.
  static Result<QrGroup> Create(const BigInt& safe_prime,
                                bool check_primality = true);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  size_t bits() const { return p_.BitLength(); }

  /// True iff x is in QR(p): x != 0 and x^q ≡ 1 (mod p).
  bool IsElement(const BigInt& x) const;

  /// Maps arbitrary bytes onto a group element (random oracle style).
  BigInt HashToGroup(const Bytes& input) const;

  /// Uniform random element of QR(p).
  BigInt RandomElement(RandomSource* rng) const;

  /// x^e mod p via the cached Montgomery context.
  BigInt Pow(const BigInt& x, const BigInt& e) const;

  /// x^e mod p with a pre-recoded exponent (fixed-exponent fast path for
  /// Pohlig–Hellman keys: recode e once, reuse for every hashed value).
  BigInt PowWithRecoding(const BigInt& x, const ExponentRecoding& rec) const;

  /// The cached Montgomery context for p.
  const std::shared_ptr<const MontgomeryContext>& mont_ctx() const {
    return ctx_;
  }

 private:
  QrGroup() = default;

  BigInt p_;
  BigInt q_;
  std::shared_ptr<const MontgomeryContext> ctx_;
  // q recoded once: IsElement runs x^q per membership test.
  std::shared_ptr<const ExponentRecoding> rec_q_;
};

}  // namespace secmed

#endif  // SECMED_CRYPTO_GROUP_H_
