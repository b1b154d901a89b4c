#ifndef SECMED_CRYPTO_COMMUTATIVE_H_
#define SECMED_CRYPTO_COMMUTATIVE_H_

#include <memory>
#include <vector>

#include "bigint/fastexp.h"
#include "crypto/group.h"
#include "obs/scope.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// Pohlig–Hellman style commutative encryption over QR(p) (Section 4).
///
/// For a safe prime p = 2q + 1, f_e(x) = x^e mod p on the subgroup of
/// quadratic residues. Because QR(p) is cyclic of prime order q:
///   - commutativity: f_e1(f_e2(x)) = x^(e1·e2) = f_e2(f_e1(x));
///   - bijectivity:   any e in [1, q) is coprime to q, so x -> x^e is a
///     permutation of QR(p);
///   - invertibility: f_e^{-1} = f_d with d = e^{-1} mod q (Inverse());
///   - secrecy:       distinguishing (x, x^e, y, y^e) from (x, x^e, y, z)
///     is the decisional Diffie–Hellman problem in QR(p).
///
/// The exponent e is fixed for the key's lifetime, so it is window-recoded
/// at construction; every Encrypt reuses the recoding instead of
/// re-scanning the exponent. No protocol decrypts, so a key holds no
/// inverse: Inverse() computes one when a decrypting key is asked for.
class CommutativeKey {
 public:
  /// Draws a fresh secret exponent e uniformly from [1, q).
  static CommutativeKey Generate(const QrGroup& group, RandomSource* rng);

  /// Reconstructs a key from a known exponent (deterministic tests).
  static Result<CommutativeKey> FromExponent(const QrGroup& group,
                                             const BigInt& e);

  /// f_e(x) = x^e mod p. `x` must be a group element.
  BigInt Encrypt(const BigInt& x) const;

  /// The decrypting key f_e^{-1} = f_d with d = e^{-1} mod q: its Encrypt
  /// undoes this key's. Runs an extended Euclid per call.
  CommutativeKey Inverse() const;

  /// Encrypts a batch under ParallelFor. The output order matches the
  /// input order regardless of thread count (encryption is deterministic,
  /// so batching never perturbs transcripts).
  std::vector<BigInt> EncryptMany(const std::vector<BigInt>& xs,
                                  size_t threads,
                                  obs::Scope* scope = nullptr,
                                  const char* label = nullptr) const;

  const BigInt& exponent() const { return e_; }
  const QrGroup& group() const { return group_; }

 private:
  CommutativeKey(QrGroup group, BigInt e);

  QrGroup group_;
  BigInt e_;
  // The fixed exponent recoded once per key (shared so keys stay copyable).
  std::shared_ptr<const ExponentRecoding> rec_e_;
};

}  // namespace secmed

#endif  // SECMED_CRYPTO_COMMUTATIVE_H_
