#include "crypto/group.h"

#include "bigint/prime.h"
#include "crypto/sha256.h"

namespace secmed {

Result<QrGroup> QrGroup::Create(const BigInt& safe_prime,
                                bool check_primality) {
  if (safe_prime < BigInt(7)) {
    return Status::InvalidArgument("safe prime must be at least 7");
  }
  BigInt q = (safe_prime - BigInt(1)) >> 1;
  QrGroup g;
  g.p_ = safe_prime;
  g.q_ = q;
  SECMED_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                          MontgomeryContext::Create(safe_prime));
  g.ctx_ = std::make_shared<const MontgomeryContext>(std::move(ctx));
  g.rec_q_ = std::make_shared<const ExponentRecoding>(ExponentRecoding::Create(q));
  if (check_primality) {
    OsRandomSource rng;
    if (!IsProbablePrime(safe_prime, &rng) || !IsProbablePrime(q, &rng)) {
      return Status::InvalidArgument("modulus is not a safe prime");
    }
  }
  return g;
}

bool QrGroup::IsElement(const BigInt& x) const {
  if (x.is_zero() || x.is_negative() || x >= p_) return false;
  return ctx_->ExpWithRecoding(x, *rec_q_) == BigInt(1);
}

BigInt QrGroup::HashToGroup(const Bytes& input) const {
  // Expand the hash to |p| + 128 bits so the reduction mod p is
  // statistically uniform, then square to land in QR(p). A zero result
  // (probability ~ 2^-|p|) retries with a counter.
  const size_t nbytes = (p_.BitLength() + 7) / 8 + 16;
  for (uint32_t counter = 0;; ++counter) {
    Bytes seed = input;
    seed.push_back(static_cast<uint8_t>(counter));
    Bytes expanded = Mgf1Sha256(seed, nbytes);
    BigInt x = BigInt::Mod(BigInt::FromBytes(expanded), p_).value();
    if (x.is_zero()) continue;
    return ctx_->Sqr(x);
  }
}

BigInt QrGroup::RandomElement(RandomSource* rng) const {
  for (;;) {
    BigInt x = BigInt::RandomBelow(p_, rng);
    if (x.is_zero()) continue;
    return ctx_->Sqr(x);
  }
}

BigInt QrGroup::Pow(const BigInt& x, const BigInt& e) const {
  return ctx_->Exp(x, e);
}

BigInt QrGroup::PowWithRecoding(const BigInt& x,
                                const ExponentRecoding& rec) const {
  return ctx_->ExpWithRecoding(x, rec);
}

}  // namespace secmed
