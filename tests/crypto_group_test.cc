#include "crypto/group.h"

#include <gtest/gtest.h>

#include "bigint/prime.h"
#include "crypto/commutative.h"
#include "crypto/drbg.h"
#include "crypto/group_params.h"
#include "util/bytes.h"

namespace secmed {
namespace {

const QrGroup& Group256() {
  static const QrGroup* g = new QrGroup(StandardGroup(256).value());
  return *g;
}

TEST(GroupParamsTest, AllStandardGroupsAreSafePrimes) {
  HmacDrbg rng(ToBytes("verify"));
  for (size_t bits : {256u, 384u, 512u, 768u, 1024u}) {
    auto g = StandardGroup(bits);
    ASSERT_TRUE(g.ok()) << bits;
    EXPECT_EQ(g->p().BitLength(), bits);
    EXPECT_TRUE(IsProbablePrime(g->p(), &rng, 48)) << bits;
    EXPECT_TRUE(IsProbablePrime(g->q(), &rng, 48)) << bits;
    EXPECT_EQ((g->q() << 1) + BigInt(1), g->p());
  }
}

TEST(GroupParamsTest, UnsupportedSizeFails) {
  EXPECT_FALSE(StandardGroup(100).ok());
  EXPECT_FALSE(StandardGroup(0).ok());
}

TEST(QrGroupTest, CreateValidatesSafePrimality) {
  // 23 = 2*11 + 1 is a safe prime; 29 is prime but not safe (14 = 2*7).
  EXPECT_TRUE(QrGroup::Create(BigInt(23)).ok());
  EXPECT_FALSE(QrGroup::Create(BigInt(29)).ok());
  EXPECT_FALSE(QrGroup::Create(BigInt(25)).ok());
  EXPECT_FALSE(QrGroup::Create(BigInt(4)).ok());
}

TEST(QrGroupTest, SmallGroupMembership) {
  // p = 23, q = 11. QR(23) = {1,2,3,4,6,8,9,12,13,16,18}.
  QrGroup g = QrGroup::Create(BigInt(23)).value();
  const int qr[] = {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18};
  int count = 0;
  for (int x = 1; x < 23; ++x) {
    bool expected = false;
    for (int r : qr) expected |= r == x;
    EXPECT_EQ(g.IsElement(BigInt(x)), expected) << x;
    if (g.IsElement(BigInt(x))) ++count;
  }
  EXPECT_EQ(count, 11);
  EXPECT_FALSE(g.IsElement(BigInt(0)));
  EXPECT_FALSE(g.IsElement(BigInt(23)));
  EXPECT_FALSE(g.IsElement(BigInt(-2)));
}

TEST(QrGroupTest, HashToGroupProducesElements) {
  const QrGroup& g = Group256();
  for (int i = 0; i < 50; ++i) {
    Bytes input = ToBytes("join-value-" + std::to_string(i));
    BigInt x = g.HashToGroup(input);
    EXPECT_TRUE(g.IsElement(x)) << i;
  }
}

TEST(QrGroupTest, HashToGroupDeterministic) {
  const QrGroup& g = Group256();
  EXPECT_EQ(g.HashToGroup(ToBytes("alice")), g.HashToGroup(ToBytes("alice")));
  EXPECT_NE(g.HashToGroup(ToBytes("alice")), g.HashToGroup(ToBytes("bob")));
}

TEST(QrGroupTest, RandomElementIsElement) {
  const QrGroup& g = Group256();
  HmacDrbg rng(ToBytes("re"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(g.IsElement(g.RandomElement(&rng)));
  }
}

TEST(CommutativeKeyTest, EncryptStaysInGroup) {
  const QrGroup& g = Group256();
  HmacDrbg rng(ToBytes("ck1"));
  CommutativeKey key = CommutativeKey::Generate(g, &rng);
  BigInt x = g.HashToGroup(ToBytes("value"));
  EXPECT_TRUE(g.IsElement(key.Encrypt(x)));
}

TEST(CommutativeKeyTest, DecryptInvertsEncrypt) {
  const QrGroup& g = Group256();
  HmacDrbg rng(ToBytes("ck2"));
  for (int i = 0; i < 10; ++i) {
    CommutativeKey key = CommutativeKey::Generate(g, &rng);
    BigInt x = g.RandomElement(&rng);
    EXPECT_EQ(key.Inverse().Encrypt(key.Encrypt(x)), x);
  }
}

TEST(CommutativeKeyTest, CommutativityProperty) {
  // The heart of the Section 4 protocol:
  // f_e1(f_e2(h(a))) == f_e2(f_e1(h(a))).
  const QrGroup& g = Group256();
  HmacDrbg rng(ToBytes("ck3"));
  for (int i = 0; i < 10; ++i) {
    CommutativeKey k1 = CommutativeKey::Generate(g, &rng);
    CommutativeKey k2 = CommutativeKey::Generate(g, &rng);
    BigInt x = g.HashToGroup(ToBytes("common-" + std::to_string(i)));
    EXPECT_EQ(k1.Encrypt(k2.Encrypt(x)), k2.Encrypt(k1.Encrypt(x)));
  }
}

TEST(CommutativeKeyTest, DistinctInputsYieldDistinctDoubleCiphertexts) {
  // Bijectivity: double encryption is injective, so the mediator's
  // equality matching never produces false positives.
  const QrGroup& g = Group256();
  HmacDrbg rng(ToBytes("ck4"));
  CommutativeKey k1 = CommutativeKey::Generate(g, &rng);
  CommutativeKey k2 = CommutativeKey::Generate(g, &rng);
  BigInt a = g.HashToGroup(ToBytes("a"));
  BigInt b = g.HashToGroup(ToBytes("b"));
  EXPECT_NE(k1.Encrypt(k2.Encrypt(a)), k1.Encrypt(k2.Encrypt(b)));
}

TEST(CommutativeKeyTest, FromExponentValidation) {
  const QrGroup& g = Group256();
  EXPECT_FALSE(CommutativeKey::FromExponent(g, BigInt(0)).ok());
  EXPECT_FALSE(CommutativeKey::FromExponent(g, g.q()).ok());
  auto k = CommutativeKey::FromExponent(g, BigInt(12345));
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k->exponent(), BigInt(12345));
  BigInt x = g.HashToGroup(ToBytes("v"));
  EXPECT_EQ(k->Inverse().Encrypt(k->Encrypt(x)), x);
}

class CommutativePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CommutativePropertyTest, RoundTripAndCommutativityAtSize) {
  QrGroup g = StandardGroup(GetParam()).value();
  HmacDrbg rng(ToBytes("sweep"));
  CommutativeKey k1 = CommutativeKey::Generate(g, &rng);
  CommutativeKey k2 = CommutativeKey::Generate(g, &rng);
  BigInt x = g.HashToGroup(ToBytes("payload"));
  BigInt both = k2.Encrypt(k1.Encrypt(x));
  EXPECT_EQ(both, k1.Encrypt(k2.Encrypt(x)));
  const CommutativeKey d1 = k1.Inverse();
  const CommutativeKey d2 = k2.Inverse();
  EXPECT_EQ(d1.Encrypt(d2.Encrypt(both)), x);
  EXPECT_EQ(d2.Encrypt(d1.Encrypt(both)), x);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommutativePropertyTest,
                         ::testing::Values(256, 384, 512, 768, 1024));

}  // namespace
}  // namespace secmed
