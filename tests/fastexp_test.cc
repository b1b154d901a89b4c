// Property tests for the modular-exponentiation fast paths: sliding-window
// exponent recoding, Paillier CRT decryption, the per-key commutative and
// RSA recodings must all agree with the textbook slow paths bit for bit.

#include <gtest/gtest.h>

#include <vector>

#include "bigint/fastexp.h"
#include "bigint/modular.h"
#include "bigint/prime.h"
#include "crypto/commutative.h"
#include "crypto/group_params.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "util/rng.h"

namespace secmed {
namespace {

// Reference square-and-multiply, independent of the windowed code paths.
BigInt NaiveModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result = BigInt::Mod(BigInt(1), m).value();
  BigInt b = BigInt::Mod(base, m).value();
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = BigInt::Mod(result * result, m).value();
    if (exp.TestBit(i)) result = BigInt::Mod(result * b, m).value();
  }
  return result;
}

BigInt RandomOddModulus(size_t bits, RandomSource* rng) {
  BigInt m = BigInt::RandomWithBits(bits, rng);
  if (m.is_even()) m = m + BigInt(1);
  return m;
}

// ---------------------------------------------------- ExponentRecoding --

TEST(ExponentRecoding, MatchesNaiveExpAcrossSizesAndWindows) {
  XoshiroRandomSource rng(101);
  for (size_t bits : {1u, 7u, 13u, 64u, 129u, 512u}) {
    BigInt m = RandomOddModulus(257, &rng);
    auto ctx = MontgomeryContext::Create(m).value();
    for (int window = 1; window <= 6; ++window) {
      BigInt base = BigInt::RandomBelow(m, &rng);
      BigInt exp = BigInt::RandomWithBits(bits, &rng);
      ExponentRecoding rec = ExponentRecoding::CreateWithWindow(exp, window);
      EXPECT_EQ(ctx.ExpWithRecoding(base, rec), NaiveModExp(base, exp, m))
          << "bits=" << bits << " window=" << window;
    }
  }
}

TEST(ExponentRecoding, ZeroAndOneExponents) {
  XoshiroRandomSource rng(102);
  BigInt m = RandomOddModulus(128, &rng);
  auto ctx = MontgomeryContext::Create(m).value();
  BigInt base = BigInt::RandomBelow(m, &rng);
  EXPECT_EQ(ctx.ExpWithRecoding(base, ExponentRecoding::Create(BigInt(0))),
            BigInt(1));
  EXPECT_EQ(ctx.ExpWithRecoding(base, ExponentRecoding::Create(BigInt(1))),
            base);
  // Powers of two exercise the trailing-squarings path.
  for (size_t k : {1u, 5u, 31u, 64u}) {
    BigInt exp = BigInt(1) << k;
    EXPECT_EQ(ctx.ExpWithRecoding(base, ExponentRecoding::Create(exp)),
              NaiveModExp(base, exp, m))
        << "2^" << k;
  }
}

TEST(ExponentRecoding, ContextExpStillMatchesFreeModExp) {
  XoshiroRandomSource rng(103);
  for (int trial = 0; trial < 16; ++trial) {
    BigInt m = RandomOddModulus(192, &rng);
    auto ctx = MontgomeryContext::Create(m).value();
    BigInt base = BigInt::RandomBelow(m, &rng);
    BigInt exp = BigInt::RandomWithBits(160, &rng);
    EXPECT_EQ(ctx.Exp(base, exp), ModExp(base, exp, m).value());
  }
}

// ---------------------------------------------------------- Paillier CRT --

TEST(PaillierCrt, DecryptMatchesNoCrtOnRandomPlaintexts) {
  XoshiroRandomSource rng(301);
  PaillierKeyPair kp = PaillierGenerateKey(256, &rng).value();
  ASSERT_TRUE(kp.private_key.has_crt());
  for (int trial = 0; trial < 32; ++trial) {
    BigInt m = BigInt::RandomBelow(kp.public_key.n(), &rng);
    BigInt c = kp.public_key.Encrypt(m, &rng).value();
    EXPECT_EQ(kp.private_key.Decrypt(c).value(), m);
    EXPECT_EQ(kp.private_key.DecryptNoCrt(c).value(), m);
  }
}

TEST(PaillierCrt, EdgePlaintexts) {
  XoshiroRandomSource rng(302);
  PaillierKeyPair kp = PaillierGenerateKey(128, &rng).value();
  for (const BigInt& m :
       {BigInt(0), BigInt(1), kp.public_key.n() - BigInt(1)}) {
    BigInt c = kp.public_key.Encrypt(m, &rng).value();
    EXPECT_EQ(kp.private_key.Decrypt(c).value(), m);
    EXPECT_EQ(kp.private_key.DecryptNoCrt(c).value(), m);
  }
}

TEST(PaillierCrt, SerializationRoundTripsCrtParams) {
  XoshiroRandomSource rng(303);
  PaillierKeyPair kp = PaillierGenerateKey(128, &rng).value();
  PaillierPrivateKey restored =
      PaillierPrivateKey::Deserialize(kp.private_key.Serialize()).value();
  EXPECT_TRUE(restored.has_crt());
  BigInt m(123456);
  BigInt c = kp.public_key.Encrypt(m, &rng).value();
  EXPECT_EQ(restored.Decrypt(c).value(), m);

  // A key built without the factorization round-trips without CRT.
  PaillierPrivateKey plain =
      PaillierPrivateKey::Deserialize(
          PaillierPrivateKey(kp.public_key, BigInt(0), BigInt(0)).Serialize())
          .value();
  EXPECT_FALSE(plain.has_crt());
}

// ------------------------------------------------- commutative fast path --

TEST(CommutativeFast, RecodedKeyMatchesGenericPow) {
  XoshiroRandomSource rng(501);
  QrGroup group = StandardGroup(256).value();
  CommutativeKey key = CommutativeKey::Generate(group, &rng);
  const CommutativeKey inverse = key.Inverse();
  for (int trial = 0; trial < 8; ++trial) {
    BigInt x = group.RandomElement(&rng);
    BigInt c = key.Encrypt(x);
    EXPECT_EQ(c, group.Pow(x, key.exponent()));
    EXPECT_EQ(inverse.Encrypt(c), x);
  }
}

TEST(CommutativeFast, EncryptManyMatchesScalarLoopAnyThreads) {
  XoshiroRandomSource rng(502);
  QrGroup group = StandardGroup(256).value();
  CommutativeKey key = CommutativeKey::Generate(group, &rng);
  std::vector<BigInt> xs;
  for (int i = 0; i < 13; ++i) xs.push_back(group.RandomElement(&rng));
  std::vector<BigInt> serial = key.EncryptMany(xs, 1);
  std::vector<BigInt> parallel = key.EncryptMany(xs, 4);
  ASSERT_EQ(serial.size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(serial[i], key.Encrypt(xs[i])) << i;
    EXPECT_EQ(serial[i], parallel[i]) << i;
  }
}

// ----------------------------------------------------------- RSA cache --

TEST(RsaFast, CachedPrivateOpMatchesSlowPath) {
  XoshiroRandomSource rng(601);
  RsaPrivateKey key = RsaGenerateKey(1024, &rng).value();
  ASSERT_NE(key.crt_cache, nullptr);
  RsaPrivateKey slow = key;
  slow.crt_cache = nullptr;  // force the per-call ModExp path
  Bytes msg = rng.Generate(24);
  Bytes sig_fast = RsaSign(key, msg).value();
  Bytes sig_slow = RsaSign(slow, msg).value();
  EXPECT_EQ(sig_fast, sig_slow);
  EXPECT_TRUE(RsaVerify(key.PublicKey(), msg, sig_fast).ok());
  Bytes ct = RsaOaepEncrypt(key.PublicKey(), msg, &rng).value();
  EXPECT_EQ(RsaOaepDecrypt(key, ct).value(), msg);
  EXPECT_EQ(RsaOaepDecrypt(slow, ct).value(), msg);
}

}  // namespace
}  // namespace secmed
