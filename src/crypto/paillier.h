#ifndef SECMED_CRYPTO_PAILLIER_H_
#define SECMED_CRYPTO_PAILLIER_H_

#include <memory>

#include "bigint/bigint.h"
#include "bigint/fastexp.h"
#include "bigint/modular.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// Paillier public key. Plaintext space Z_n, ciphertext space Z_{n^2}^*.
/// The generator is fixed to g = n + 1, for which decryption simplifies
/// and no subgroup checks are needed.
class PaillierPublicKey {
 public:
  /// Builds the key (and its cached Montgomery context) from the modulus.
  static Result<PaillierPublicKey> Create(const BigInt& n);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }
  /// Bytes needed to encode one plaintext (floor(bits(n)/8); safe bound).
  size_t MaxPlaintextBytes() const { return (n_.BitLength() - 1) / 8; }

  Bytes Serialize() const;
  static Result<PaillierPublicKey> Deserialize(const Bytes& data);

  /// Encrypts m in [0, n): c = (1 + m·n) · r^n mod n^2.
  Result<BigInt> Encrypt(const BigInt& m, RandomSource* rng) const;

  /// Draws the randomizer base r uniform in [1, n) with gcd(r, n) = 1 —
  /// exactly the draw Encrypt performs.
  BigInt DrawRandomizerBase(RandomSource* rng) const;

  /// The expensive half of Encrypt: r^n mod n^2 with the recoded fixed
  /// exponent n.
  BigInt MakeRandomizer(const BigInt& r) const;

  /// Finishes an encryption given a precomputed r^n: one modular product.
  Result<BigInt> EncryptWithRandomizer(const BigInt& m,
                                       const BigInt& r_n) const;

  /// Homomorphic addition: E(a) ⊕ E(b) = E(a + b mod n).
  BigInt Add(const BigInt& c1, const BigInt& c2) const;

  /// Homomorphic scalar multiplication: k ⊙ E(a) = E(k·a mod n).
  BigInt ScalarMul(const BigInt& c, const BigInt& k) const;

  /// Adds a plaintext constant: E(a) ⊕ m = E(a + m mod n), cheaper than
  /// Add(c, Encrypt(m)).
  BigInt AddPlain(const BigInt& c, const BigInt& m) const;

  /// Re-randomizes a ciphertext without changing the plaintext.
  Result<BigInt> Rerandomize(const BigInt& c, RandomSource* rng) const;

  /// base^exp mod n^2 via the cached Montgomery context.
  BigInt Pow(const BigInt& base, const BigInt& exp) const;

  /// base^exp mod n^2 with a pre-recoded exponent (fixed-exponent fast
  /// path; the private key caches lambda's recoding for DecryptNoCrt).
  BigInt PowWithRecoding(const BigInt& base, const ExponentRecoding& rec) const;

  bool operator==(const PaillierPublicKey& other) const {
    return n_ == other.n_;
  }

 private:
  PaillierPublicKey() = default;

  BigInt n_;
  BigInt n_squared_;
  std::shared_ptr<const MontgomeryContext> ctx_;  // modulo n^2
  // The encryption exponent n is fixed for the key's lifetime: recoded once.
  std::shared_ptr<const ExponentRecoding> rec_n_;
};

/// Paillier private key (lambda = lcm(p-1, q-1), mu = lambda^{-1} mod n).
///
/// When built from the factorization (CreateWithCrt / PaillierGenerateKey),
/// decryption runs mod p^2 and q^2 separately: two half-size
/// exponentiations with half-length exponents plus a CRT recombination,
/// which is several times faster than the textbook c^lambda mod n^2.
class PaillierPrivateKey {
 public:
  /// Key without CRT acceleration (decryption uses the textbook path).
  PaillierPrivateKey(PaillierPublicKey pub, BigInt lambda, BigInt mu)
      : pub_(std::move(pub)),
        lambda_(std::move(lambda)),
        mu_(std::move(mu)),
        rec_lambda_(std::make_shared<const ExponentRecoding>(
            ExponentRecoding::Create(lambda_))) {}

  /// Builds the key from the factorization n = p·q and precomputes the
  /// CRT decryption state (contexts mod p^2/q^2, recoded exponents,
  /// L-function inverses, CRT coefficient).
  static Result<PaillierPrivateKey> CreateWithCrt(PaillierPublicKey pub,
                                                  const BigInt& p,
                                                  const BigInt& q);

  const PaillierPublicKey& public_key() const { return pub_; }
  bool has_crt() const { return crt_ != nullptr; }

  /// Decrypts c; uses the CRT fast path when available.
  Result<BigInt> Decrypt(const BigInt& c) const;

  /// Textbook decryption m = L(c^lambda mod n^2) · mu mod n, L(u) = (u-1)/n.
  /// Kept public as the reference slow path for equivalence tests.
  Result<BigInt> DecryptNoCrt(const BigInt& c) const;

  /// Serializes the key including CRT parameters when present.
  Bytes Serialize() const;
  static Result<PaillierPrivateKey> Deserialize(const Bytes& data);

 private:
  // Everything CRT decryption needs, derived from (p, q) once per key.
  struct CrtState {
    BigInt p, q;
    BigInt p_squared, q_squared;
    std::shared_ptr<const MontgomeryContext> ctx_p2;  // modulo p^2
    std::shared_ptr<const MontgomeryContext> ctx_q2;  // modulo q^2
    ExponentRecoding rec_pm1;  // p - 1
    ExponentRecoding rec_qm1;  // q - 1
    BigInt hp;        // L_p((1+n)^(p-1) mod p^2)^{-1} mod p
    BigInt hq;        // L_q((1+n)^(q-1) mod q^2)^{-1} mod q
    BigInt q_inv_p;   // q^{-1} mod p
  };

  PaillierPublicKey pub_;
  BigInt lambda_;
  BigInt mu_;
  // lambda recoded once per key: DecryptNoCrt is the reference oracle in
  // tests and still deserves the fixed-exponent fast path.
  std::shared_ptr<const ExponentRecoding> rec_lambda_;
  std::shared_ptr<const CrtState> crt_;  // null on the non-CRT path
};

struct PaillierKeyPair {
  PaillierPublicKey public_key;
  PaillierPrivateKey private_key;
};

/// Generates a keypair with an (approximately) `bits`-bit modulus n.
Result<PaillierKeyPair> PaillierGenerateKey(size_t bits, RandomSource* rng);

}  // namespace secmed

#endif  // SECMED_CRYPTO_PAILLIER_H_
