#include "crypto/aead.h"

#include "crypto/aes.h"
#include "crypto/sha256.h"

namespace secmed {

Result<Aead> Aead::Create(const Bytes& key) {
  if (key.size() != kKeySize) {
    return Status::InvalidArgument("AEAD key must be 32 bytes");
  }
  Aead aead;
  aead.enc_key_ = HmacSha256(key, ToBytes("secmed-aead-enc"));
  aead.mac_key_ = HmacSha256(key, ToBytes("secmed-aead-mac"));
  return aead;
}

Bytes Aead::GenerateKey(RandomSource* rng) { return rng->Generate(kKeySize); }

Result<Bytes> Aead::Seal(const Bytes& plaintext, const Bytes& aad,
                         RandomSource* rng) const {
  return Seal(plaintext, aad, rng->Generate(kIvSize));
}

Result<Bytes> Aead::Seal(const Bytes& plaintext, const Bytes& aad,
                         const Bytes& iv) const {
  if (iv.size() != kIvSize) {
    return Status::InvalidArgument("AEAD IV must be 12 bytes");
  }
  SECMED_ASSIGN_OR_RETURN(Aes aes, Aes::Create(enc_key_));
  SECMED_ASSIGN_OR_RETURN(Bytes ciphertext, AesCtrTransform(aes, iv, plaintext));
  Bytes mac_input = iv;
  Append(&mac_input, ciphertext);
  Append(&mac_input, aad);
  Bytes tag = HmacSha256(mac_key_, mac_input);
  Bytes out = iv;
  Append(&out, ciphertext);
  Append(&out, tag);
  return out;
}

Result<Bytes> Aead::Open(const Bytes& sealed, const Bytes& aad) const {
  if (sealed.size() < kIvSize + kTagSize) {
    return Status::CryptoError("sealed message too short");
  }
  Bytes iv(sealed.begin(), sealed.begin() + kIvSize);
  Bytes ciphertext(sealed.begin() + kIvSize, sealed.end() - kTagSize);
  Bytes tag(sealed.end() - kTagSize, sealed.end());
  Bytes mac_input = iv;
  Append(&mac_input, ciphertext);
  Append(&mac_input, aad);
  Bytes expected = HmacSha256(mac_key_, mac_input);
  if (!ConstantTimeEquals(tag, expected)) {
    return Status::CryptoError("AEAD tag verification failed");
  }
  SECMED_ASSIGN_OR_RETURN(Aes aes, Aes::Create(enc_key_));
  return AesCtrTransform(aes, iv, ciphertext);
}

}  // namespace secmed
