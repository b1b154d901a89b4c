#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace secmed {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  SECMED_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_EQ(UseReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  SECMED_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_TRUE(r.status().ok());

  Result<int> e = ParsePositive(-1);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubleIt(21).value(), 42);
  EXPECT_FALSE(DoubleIt(0).ok());
}

Result<std::vector<std::string>> Words() {
  return std::vector<std::string>{"alpha", "beta", "gamma"};
}

// value() on a temporary Result must hand out the value itself, not a
// reference into the temporary: the range-for below keeps only what
// value() returns alive, and the Result dies before the loop body runs.
TEST(ResultTest, ValueOfTemporaryOutlivesTheResult) {
  std::string joined;
  for (const std::string& w : Words().value()) joined += w;
  EXPECT_EQ(joined, "alphabetagamma");
}

TEST(BytesTest, StringConversionRoundTrip) {
  std::string s = "hello\0world";
  Bytes b = ToBytes(s);
  EXPECT_EQ(BytesToString(b), s);
}

TEST(BytesTest, ConcatAndAppend) {
  Bytes a = {1, 2};
  Bytes b = {3};
  EXPECT_EQ(Concat(a, b), (Bytes{1, 2, 3}));
  Append(&a, b);
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
}

TEST(BytesTest, ConstantTimeEquals) {
  EXPECT_TRUE(ConstantTimeEquals({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEquals({}, {}));
}

TEST(BytesTest, XorInPlace) {
  Bytes a = {0xFF, 0x00, 0xAA};
  XorInPlace(&a, {0x0F, 0xF0, 0xAA});
  EXPECT_EQ(a, (Bytes{0xF0, 0xF0, 0x00}));
}

TEST(HexTest, EncodeDecode) {
  Bytes b = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(HexEncode(b), "deadbeef");
  EXPECT_EQ(HexDecode("deadbeef"), b);
  EXPECT_EQ(HexDecode("DEADBEEF"), b);
  EXPECT_EQ(HexEncode({}), "");
  EXPECT_EQ(HexDecode(""), Bytes{});
}

TEST(HexTest, InvalidInput) {
  EXPECT_FALSE(IsValidHex("abc"));    // odd length
  EXPECT_FALSE(IsValidHex("zz"));     // bad chars
  EXPECT_TRUE(IsValidHex("00ff"));
  EXPECT_TRUE(HexDecode("xy").empty());
}

TEST(SerializeTest, PrimitiveRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xCDEF);
  w.WriteU32(0x12345678);
  w.WriteU64(0xDEADBEEFCAFEBABEULL);
  w.WriteI64(-42);
  w.WriteBytes({9, 8, 7});
  w.WriteString("mediator");

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0xCDEF);
  EXPECT_EQ(r.ReadU32().value(), 0x12345678u);
  EXPECT_EQ(r.ReadU64().value(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_EQ(r.ReadBytes().value(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.ReadString().value(), "mediator");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncationDetected) {
  BinaryWriter w;
  w.WriteU32(7);
  Bytes buf = w.buffer();
  buf.pop_back();
  BinaryReader r(buf);
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, BytesLengthPrefixTruncation) {
  BinaryWriter w;
  w.WriteU32(100);  // claims 100 bytes follow
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadBytes().status().code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, EmptyBytesAndString) {
  BinaryWriter w;
  w.WriteBytes({});
  w.WriteString("");
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadBytes().value().empty());
  EXPECT_TRUE(r.ReadString().value().empty());
}

TEST(RngTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.NextU64() != b.NextU64();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(RngTest, NextInRangeInclusive) {
  Xoshiro256 rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBytesLength) {
  Xoshiro256 rng(11);
  EXPECT_EQ(rng.NextBytes(0).size(), 0u);
  EXPECT_EQ(rng.NextBytes(7).size(), 7u);
  EXPECT_EQ(rng.NextBytes(64).size(), 64u);
}

TEST(RngTest, OsRandomBytesNonConstant) {
  Bytes a = OsRandomBytes(32);
  Bytes b = OsRandomBytes(32);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(a, b);
}

TEST(RngTest, XoshiroRandomSourceDeterministic) {
  XoshiroRandomSource a(5), b(5);
  EXPECT_EQ(a.Generate(16), b.Generate(16));
}

}  // namespace
}  // namespace secmed
