#include "crypto/commutative.h"

#include "bigint/modular.h"
#include "util/parallel.h"

namespace secmed {

CommutativeKey::CommutativeKey(QrGroup group, BigInt e)
    : group_(std::move(group)), e_(std::move(e)) {
  rec_e_ = std::make_shared<const ExponentRecoding>(ExponentRecoding::Create(e_));
}

CommutativeKey CommutativeKey::Generate(const QrGroup& group,
                                        RandomSource* rng) {
  // e uniform in [1, q); q is prime so every such e is invertible.
  BigInt e = BigInt::RandomBelow(group.q() - BigInt(1), rng) + BigInt(1);
  return CommutativeKey(group, std::move(e));
}

Result<CommutativeKey> CommutativeKey::FromExponent(const QrGroup& group,
                                                    const BigInt& e) {
  if (e < BigInt(1) || e >= group.q()) {
    return Status::InvalidArgument("exponent must be in [1, q)");
  }
  return CommutativeKey(group, e);
}

BigInt CommutativeKey::Encrypt(const BigInt& x) const {
  return group_.PowWithRecoding(x, *rec_e_);
}

CommutativeKey CommutativeKey::Inverse() const {
  return CommutativeKey(group_, ModInverse(e_, group_.q()).value());
}

std::vector<BigInt> CommutativeKey::EncryptMany(const std::vector<BigInt>& xs,
                                                size_t threads,
                                                obs::Scope* scope,
                                                const char* label) const {
  std::vector<BigInt> out(xs.size());
  ParallelFor(
      xs.size(), threads, [&](size_t i) { out[i] = Encrypt(xs[i]); }, scope,
      label);
  return out;
}

}  // namespace secmed
