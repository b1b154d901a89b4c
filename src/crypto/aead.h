#ifndef SECMED_CRYPTO_AEAD_H_
#define SECMED_CRYPTO_AEAD_H_

#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// Authenticated symmetric encryption: AES-256-CTR with an HMAC-SHA256 tag
/// (encrypt-then-MAC). This is the session cipher of the hybrid scheme —
/// every partial result, index table and tuple set that travels through
/// the mediator is sealed with it.
class Aead {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kIvSize = 12;
  static constexpr size_t kTagSize = 32;

  /// Creates an AEAD instance from a 32-byte master key. Separate
  /// encryption and MAC keys are derived internally.
  static Result<Aead> Create(const Bytes& key);

  /// Generates a fresh random 32-byte key.
  static Bytes GenerateKey(RandomSource* rng);

  /// Seals `plaintext` with a fresh random IV drawn from `rng`, binding
  /// `aad` into the tag. Output layout: iv || ciphertext || tag.
  Result<Bytes> Seal(const Bytes& plaintext, const Bytes& aad,
                     RandomSource* rng) const;

  /// Seals under a caller-drawn `iv` of kIvSize bytes, which must be
  /// unique under this key. Lets a batch draw all its IVs in one call.
  Result<Bytes> Seal(const Bytes& plaintext, const Bytes& aad,
                     const Bytes& iv) const;

  /// Opens a sealed message; fails with kCryptoError if the tag does not
  /// verify or the message is malformed.
  Result<Bytes> Open(const Bytes& sealed, const Bytes& aad) const;

 private:
  Aead() = default;

  Bytes enc_key_;
  Bytes mac_key_;
};

}  // namespace secmed

#endif  // SECMED_CRYPTO_AEAD_H_
