// Regression tests for 64-bit payload-table ID collisions in the PM
// protocol (footnote-2 session-key mode). A colliding ID used to silently
// shadow one tuple set on both the source and client side; now the source
// redraws and the client fails loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/pm_protocol.h"
#include "core/testbed.h"
#include "util/serialize.h"

namespace secmed {
namespace {

// RandomSource replaying a fixed list of draws, then falling back to a
// deterministic PRNG. Lets the tests force exactly the collision pattern
// they need.
class ScriptedRandomSource : public RandomSource {
 public:
  explicit ScriptedRandomSource(std::vector<Bytes> draws)
      : draws_(std::move(draws)), fallback_(0xBADC0FFEE) {}

  Bytes Generate(size_t n) override {
    if (next_ < draws_.size()) {
      Bytes out = draws_[next_++];
      out.resize(n, 0);
      return out;
    }
    return fallback_.Generate(n);
  }

 private:
  std::vector<Bytes> draws_;
  size_t next_ = 0;
  XoshiroRandomSource fallback_;
};

// A source-less constant generator: every draw returns the same bytes.
class ConstantRandomSource : public RandomSource {
 public:
  explicit ConstantRandomSource(uint8_t fill) : fill_(fill) {}
  Bytes Generate(size_t n) override { return Bytes(n, fill_); }

 private:
  uint8_t fill_;
};

TEST(DrawDistinctPayloadIds, RedrawsOnCollision) {
  // First two draws collide; the third resolves it.
  Bytes dup{1, 2, 3, 4, 5, 6, 7, 8};
  Bytes other{9, 9, 9, 9, 9, 9, 9, 9};
  ScriptedRandomSource rng({dup, dup, other});
  auto ids = DrawDistinctPayloadIds(2, &rng);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), 2u);
  EXPECT_NE((*ids)[0], (*ids)[1]);
  EXPECT_EQ((*ids)[0], 0x0102030405060708u);
  EXPECT_EQ((*ids)[1], 0x0909090909090909u);
}

TEST(DrawDistinctPayloadIds, DistinctForLargeCounts) {
  XoshiroRandomSource rng(42);
  auto ids = DrawDistinctPayloadIds(1000, &rng);
  ASSERT_TRUE(ids.ok());
  std::set<uint64_t> unique(ids->begin(), ids->end());
  EXPECT_EQ(unique.size(), 1000u);
}

TEST(DrawDistinctPayloadIds, BrokenSourceErrorsInsteadOfLooping) {
  // A generator that can never produce a second distinct ID must fail
  // with a bounded error, not spin forever.
  ConstantRandomSource rng(0x5A);
  auto ids = DrawDistinctPayloadIds(2, &rng);
  ASSERT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kInternal);
}

TEST(DrawDistinctPayloadIds, ZeroAndOne) {
  ConstantRandomSource rng(0x77);  // fine as long as no redraw is needed
  EXPECT_TRUE(DrawDistinctPayloadIds(0, &rng)->empty());
  auto one = DrawDistinctPayloadIds(1, &rng);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)[0], 0x7777777777777777u);
}

// End-to-end: a malicious/faulty source that ships two payload-table
// entries under the same ID must make the client abort, not silently
// drop one tuple set. The duplicate is injected by rewriting the second
// entry's ID on the wire.
TEST(PmPayloadCollision, ClientRejectsDuplicatePayloadTableIds) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 12;
  cfg.r2_tuples = 10;
  cfg.r1_domain = 6;
  cfg.r2_domain = 5;
  cfg.common_values = 3;
  cfg.seed = 4242;
  Workload w = GenerateWorkload(cfg);
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;

  bool tampered = false;
  tb.bus().SetTamperHook([&tampered](Message* msg) {
    if (msg->type != "pm_evaluations" || tampered) return;
    // Layout: u8 which | u32 n | n * bytes(eval) | u32 m | m * (8-byte
    // raw big-endian id + bytes(sealed)).
    BinaryReader r(msg->payload);
    if (!r.ReadU8().ok()) return;
    auto n = r.ReadU32();
    if (!n.ok()) return;
    for (uint32_t k = 0; k < *n; ++k) {
      if (!r.ReadBytes().ok()) return;
    }
    auto m = r.ReadU32();
    if (!m.ok() || *m < 2) return;
    auto first_id = r.ReadRaw(8);
    if (!first_id.ok() || !r.ReadBytes().ok()) return;
    size_t second_id_at = msg->payload.size() - r.remaining();
    std::copy(first_id->begin(), first_id->end(),
              msg->payload.begin() + second_id_at);
    tampered = true;
  });

  PmJoinProtocol pm;
  auto result = pm.Run(tb.JoinSql(), tb.ctx());
  ASSERT_TRUE(tampered) << "workload produced fewer than 2 payload entries";
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(result.status().ToString().find("duplicate payload-table ID"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace secmed
