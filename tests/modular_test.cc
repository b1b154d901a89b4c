#include "bigint/modular.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "util/rng.h"

namespace secmed {
namespace {

TEST(GcdTest, KnownValues) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)).ToDecimal(), "6");
  EXPECT_EQ(Gcd(BigInt(17), BigInt(5)).ToDecimal(), "1");
  EXPECT_EQ(Gcd(BigInt(0), BigInt(7)).ToDecimal(), "7");
  EXPECT_EQ(Gcd(BigInt(7), BigInt(0)).ToDecimal(), "7");
  EXPECT_EQ(Gcd(BigInt(0), BigInt(0)).ToDecimal(), "0");
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(18)).ToDecimal(), "6");
  EXPECT_EQ(Gcd(BigInt(-12), BigInt(-18)).ToDecimal(), "6");
  EXPECT_EQ(Gcd(BigInt(-7), BigInt(0)).ToDecimal(), "7");
  EXPECT_EQ(Gcd(BigInt(-9), BigInt(-9)).ToDecimal(), "9");
  // Powers of two across limb boundaries: 2^100 and 3·2^64 share 2^64.
  EXPECT_EQ(Gcd(BigInt(1) << 100, BigInt(3) << 64), BigInt(1) << 64);
  EXPECT_EQ(Gcd(BigInt(5) << 200, BigInt(5) << 200), BigInt(5) << 200);
  // 2^127 - 1 is prime; 2^254 - 1 = (2^127 - 1)(2^127 + 1).
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_EQ(Gcd((BigInt(1) << 254) - BigInt(1), m127 << 9), m127);
}

// Operand pairs the binary GCD special-cases, from 0 to 2048 bits: zero,
// equal and negative operands, shared powers of two (within and across
// 64-bit limbs) and planted common odd and even factors.
std::vector<std::pair<BigInt, BigInt>> GcdCorpus() {
  XoshiroRandomSource rng(43);
  std::vector<std::pair<BigInt, BigInt>> cases;
  for (size_t bits : {0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255,
                      512, 1024, 1500, 2048}) {
    const BigInt a =
        bits == 0 ? BigInt(0) : BigInt::RandomWithBits(bits, &rng);
    const BigInt b = BigInt::RandomWithBits(bits / 2 + 1, &rng);
    const BigInt c = BigInt::RandomWithBits(bits + 1, &rng);
    const BigInt f = BigInt::RandomWithBits(bits / 3 + 2, &rng);
    cases.push_back({a, BigInt(0)});
    cases.push_back({BigInt(0), a});
    cases.push_back({a, a});
    cases.push_back({-a, -a});
    cases.push_back({-a, b});
    cases.push_back({c, -b});
    cases.push_back({a, c});
    cases.push_back({a << 7, b << 3});
    cases.push_back({c << 70, b << 129});
    cases.push_back({a * f, b * f});
    cases.push_back({(c * f) << 64, -((b * f) << 66)});
    cases.push_back({f, f * c});
  }
  return cases;
}

TEST(LcmTest, KnownValues) {
  EXPECT_EQ(Lcm(BigInt(4), BigInt(6)).ToDecimal(), "12");
  EXPECT_EQ(Lcm(BigInt(0), BigInt(6)).ToDecimal(), "0");
  EXPECT_EQ(Lcm(BigInt(7), BigInt(13)).ToDecimal(), "91");
}

TEST(ExtendedGcdTest, BezoutIdentity) {
  XoshiroRandomSource rng(42);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomWithBits(128, &rng);
    BigInt b = BigInt::RandomWithBits(96, &rng);
    ExtendedGcdResult e = ExtendedGcd(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g);
    EXPECT_EQ(e.g, Gcd(a, b));
  }
  // Extended Euclid is the reference for the binary Gcd; its g carries
  // a sign when an operand is negative.
  for (const auto& [a, b] : GcdCorpus()) {
    ExtendedGcdResult e = ExtendedGcd(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g) << "a=" << a << " b=" << b;
    EXPECT_EQ(Gcd(a, b), e.g.Abs()) << "a=" << a << " b=" << b;
    EXPECT_EQ(Gcd(b, a), e.g.Abs()) << "a=" << a << " b=" << b;
  }
}

TEST(ModInverseTest, KnownValues) {
  // 3 * 4 = 12 ≡ 1 (mod 11)
  EXPECT_EQ(ModInverse(BigInt(3), BigInt(11)).value().ToDecimal(), "4");
  // Non-invertible: gcd(6, 9) = 3
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(3), BigInt(1)).ok());
}

TEST(ModInverseTest, RandomInverses) {
  XoshiroRandomSource rng(17);
  BigInt m = BigInt::FromDecimal("170141183460469231731687303715884105727")
                 .value();  // 2^127 - 1, prime
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBelow(m - BigInt(1), &rng) + BigInt(1);
    BigInt inv = ModInverse(a, m).value();
    EXPECT_EQ(ModMul(a, inv, m).value(), BigInt(1));
  }
}

TEST(ModInverseTest, NegativeInput) {
  // -3 ≡ 8 (mod 11); 8 * 7 = 56 ≡ 1 (mod 11)
  EXPECT_EQ(ModInverse(BigInt(-3), BigInt(11)).value().ToDecimal(), "7");
}

TEST(ModMulTest, Basic) {
  EXPECT_EQ(ModMul(BigInt(7), BigInt(8), BigInt(10)).value().ToDecimal(), "6");
  EXPECT_EQ(ModMul(BigInt(-7), BigInt(8), BigInt(10)).value().ToDecimal(), "4");
  EXPECT_FALSE(ModMul(BigInt(1), BigInt(1), BigInt(0)).ok());
}

TEST(ModExpTest, SmallKnownValues) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)).value().ToDecimal(),
            "24");
  EXPECT_EQ(ModExp(BigInt(3), BigInt(0), BigInt(7)).value().ToDecimal(), "1");
  EXPECT_EQ(ModExp(BigInt(0), BigInt(5), BigInt(7)).value().ToDecimal(), "0");
  EXPECT_EQ(ModExp(BigInt(5), BigInt(3), BigInt(1)).value().ToDecimal(), "0");
  EXPECT_FALSE(ModExp(BigInt(2), BigInt(-1), BigInt(7)).ok());
  EXPECT_FALSE(ModExp(BigInt(2), BigInt(3), BigInt(0)).ok());
}

TEST(ModExpTest, EvenModulus) {
  // 3^5 = 243 ≡ 243 - 15*16 = 3 (mod 16)
  EXPECT_EQ(ModExp(BigInt(3), BigInt(5), BigInt(16)).value().ToDecimal(), "3");
}

TEST(ModExpTest, FermatLittleTheorem) {
  // a^(p-1) ≡ 1 (mod p) for prime p and a not divisible by p.
  BigInt p = BigInt::FromDecimal("170141183460469231731687303715884105727")
                 .value();  // 2^127 - 1
  XoshiroRandomSource rng(5);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(2), &rng) + BigInt(1);
    EXPECT_EQ(ModExp(a, p - BigInt(1), p).value(), BigInt(1));
  }
}

class MontgomeryProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MontgomeryProperty, MulMatchesDivisionBasedReduction) {
  const size_t bits = GetParam();
  XoshiroRandomSource rng(1000 + bits);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (m.is_even()) m += BigInt(1);
    auto ctx = MontgomeryContext::Create(m).value();
    for (int k = 0; k < 10; ++k) {
      BigInt a = BigInt::RandomBelow(m, &rng);
      BigInt b = BigInt::RandomBelow(m, &rng);
      EXPECT_EQ(ctx.Mul(a, b), (a * b) % m);
    }
  }
}

TEST_P(MontgomeryProperty, ToFromMontRoundTrip) {
  const size_t bits = GetParam();
  XoshiroRandomSource rng(2000 + bits);
  BigInt m = BigInt::RandomWithBits(bits, &rng);
  if (m.is_even()) m += BigInt(1);
  auto ctx = MontgomeryContext::Create(m).value();
  for (int k = 0; k < 20; ++k) {
    BigInt a = BigInt::RandomBelow(m, &rng);
    EXPECT_EQ(ctx.FromMont(ctx.ToMont(a)), a);
  }
}

TEST_P(MontgomeryProperty, ExpMatchesNaiveSquareAndMultiply) {
  const size_t bits = GetParam();
  XoshiroRandomSource rng(3000 + bits);
  BigInt m = BigInt::RandomWithBits(bits, &rng);
  if (m.is_even()) m += BigInt(1);
  auto ctx = MontgomeryContext::Create(m).value();
  for (int k = 0; k < 5; ++k) {
    BigInt base = BigInt::RandomBelow(m, &rng);
    BigInt exp = BigInt::RandomWithBits(48, &rng);
    // Naive reference.
    BigInt expected = BigInt::Mod(BigInt(1), m).value();
    for (size_t i = exp.BitLength(); i-- > 0;) {
      expected = (expected * expected) % m;
      if (exp.TestBit(i)) expected = (expected * base) % m;
    }
    EXPECT_EQ(ctx.Exp(base, exp), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MontgomeryProperty,
                         ::testing::Values(17, 32, 64, 128, 256, 512, 1024));

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(10)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
}

TEST(MontgomeryTest, ExpEdgeCases) {
  auto ctx = MontgomeryContext::Create(BigInt(97)).value();
  EXPECT_EQ(ctx.Exp(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.Exp(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(ctx.Exp(BigInt(1), BigInt(12345)), BigInt(1));
  EXPECT_EQ(ctx.Exp(BigInt(96), BigInt(2)), BigInt(1));  // (-1)^2
}

TEST(MontgomeryTest, WideOperandsAreReducedNotTruncated) {
  // Regression: PadLimbs used to resize() operands down to the modulus
  // width, so any input wider than the modulus was silently chopped and
  // MulMont returned garbage. Operands outside [0, m) must behave as
  // their reduction mod m on every entry point.
  XoshiroRandomSource rng(4242);
  BigInt m = BigInt::RandomWithBits(256, &rng);
  if (m.is_even()) m += BigInt(1);
  auto ctx = MontgomeryContext::Create(m).value();
  const BigInt a = BigInt::RandomBelow(m, &rng);
  const BigInt b = BigInt::RandomBelow(m, &rng);
  // Three widths past the modulus: one extra bit, double width, and a
  // value whose high limbs are dense ones.
  const std::vector<BigInt> wides = {a + m, a + m * m,
                                     a + ((BigInt(1) << 520) - BigInt(1)) * m};
  for (const BigInt& wide : wides) {
    EXPECT_EQ(ctx.Mul(wide, b), ctx.Mul(a, b));
    EXPECT_EQ(ctx.MulMont(wide, b), ctx.MulMont(a, b));
    EXPECT_EQ(ctx.ToMont(wide), ctx.ToMont(a));
    EXPECT_EQ(ctx.FromMont(wide), ctx.FromMont(a));
    EXPECT_EQ(ctx.Sqr(wide), ctx.Sqr(a));
    EXPECT_EQ(ctx.Exp(wide, BigInt(3)), ctx.Exp(a, BigInt(3)));
  }
  // Negative inputs follow mathematical-mod semantics too.
  EXPECT_EQ(ctx.Mul(-b, a), ctx.Mul(m - b, a));
}

TEST(MontgomeryTest, SqrMatchesMulEverywhere) {
  XoshiroRandomSource rng(5151);
  for (size_t bits : {17, 64, 128, 521, 1024}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (m.is_even()) m += BigInt(1);
    auto ctx = MontgomeryContext::Create(m).value();
    EXPECT_EQ(ctx.Sqr(BigInt(0)), BigInt(0));
    EXPECT_EQ(ctx.Sqr(m - BigInt(1)), ctx.Mul(m - BigInt(1), m - BigInt(1)));
    for (int k = 0; k < 10; ++k) {
      BigInt a = BigInt::RandomBelow(m, &rng);
      EXPECT_EQ(ctx.Sqr(a), (a * a) % m) << "bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace secmed
