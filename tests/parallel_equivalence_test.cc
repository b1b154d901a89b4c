// Tier-1 determinism guarantee of the parallel execution layer: under a
// seeded RNG, every protocol produces the *bit-identical* join result and
// transcript with threads=1 (exact legacy serial path) and threads=4 —
// per-item RNG forking makes the outputs independent of scheduling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/aggregate_protocol.h"
#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "core/testbed.h"

namespace secmed {
namespace {

Workload EquivWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 30;
  cfg.r2_tuples = 24;
  cfg.r1_domain = 12;
  cfg.r2_domain = 10;
  cfg.common_values = 5;
  cfg.r1_extra_columns = 2;
  cfg.r2_extra_columns = 1;
  cfg.seed = 77;
  return GenerateWorkload(cfg);
}

struct RunOutput {
  Bytes result;             // serialized join result
  size_t transcript_bytes;  // total wire bytes
  std::vector<size_t> message_sizes;
  std::vector<Bytes> payloads;
};

// Runs `protocol` on a fresh same-seeded testbed with the given thread
// count and captures everything observable.
template <typename RunFn>
RunOutput RunWith(const Workload& w, const std::string& label, size_t threads,
                  RunFn run) {
  MediationTestbed::Options opt;
  opt.seed_label = "par-eq-" + label;  // same seed for every thread count
  opt.threads = threads;
  auto tb_or = MediationTestbed::Create(w, opt);
  if (!tb_or.ok()) {
    ADD_FAILURE() << tb_or.status().ToString();
    return {};
  }
  MediationTestbed& tb = **tb_or;
  RunOutput out;
  out.result = run(tb);
  out.transcript_bytes = tb.bus().TotalBytes();
  for (const Message& m : tb.bus().transcript()) {
    out.message_sizes.push_back(m.WireSize());
    out.payloads.push_back(m.payload);
  }
  return out;
}

void ExpectIdentical(const RunOutput& serial, const RunOutput& parallel,
                     const char* label) {
  EXPECT_EQ(serial.result, parallel.result) << label << ": result differs";
  EXPECT_EQ(serial.transcript_bytes, parallel.transcript_bytes)
      << label << ": transcript byte count differs";
  ASSERT_EQ(serial.message_sizes.size(), parallel.message_sizes.size())
      << label << ": message count differs";
  for (size_t i = 0; i < serial.message_sizes.size(); ++i) {
    EXPECT_EQ(serial.message_sizes[i], parallel.message_sizes[i])
        << label << ": size of message " << i << " differs";
    EXPECT_EQ(serial.payloads[i] == parallel.payloads[i], true)
        << label << ": payload of message " << i << " differs";
  }
}

TEST(ParallelEquivalence, DasProtocol) {
  Workload w = EquivWorkload();
  auto run = [](MediationTestbed& tb) -> Bytes {
    DasJoinProtocol das(
        DasProtocolOptions{PartitionStrategy::kEquiDepth, 4});
    auto r = das.Run(tb.JoinSql(), tb.ctx());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->Serialize() : Bytes();
  };
  ExpectIdentical(RunWith(w, "das", 1, run), RunWith(w, "das", 4, run),
                  "das");
}

TEST(ParallelEquivalence, CommutativeProtocol) {
  Workload w = EquivWorkload();
  for (bool forward : {false, true}) {
    auto run = [forward](MediationTestbed& tb) -> Bytes {
      CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, forward});
      auto r = comm.Run(tb.JoinSql(), tb.ctx());
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return r.ok() ? r->Serialize() : Bytes();
    };
    std::string label = forward ? "comm-fwd" : "comm";
    ExpectIdentical(RunWith(w, label, 1, run), RunWith(w, label, 4, run),
                    label.c_str());
  }
}

TEST(ParallelEquivalence, PmProtocol) {
  Workload w = EquivWorkload();
  auto run = [](MediationTestbed& tb) -> Bytes {
    PmJoinProtocol pm;
    auto r = pm.Run(tb.JoinSql(), tb.ctx());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->Serialize() : Bytes();
  };
  ExpectIdentical(RunWith(w, "pm", 1, run), RunWith(w, "pm", 4, run), "pm");
}

TEST(ParallelEquivalence, AggregateProtocol) {
  Workload w = EquivWorkload();
  auto run = [](MediationTestbed& tb) -> Bytes {
    AggregateJoinProtocol agg(256);
    auto r = agg.Run(tb.JoinSql(), JoinAggregateSpec{AggregateFn::kCount, ""},
                     tb.ctx());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    int64_t v = r.ok() ? *r : -1;
    Bytes enc;
    for (int b = 0; b < 8; ++b) {
      enc.push_back(static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * b)));
    }
    return enc;
  };
  ExpectIdentical(RunWith(w, "agg", 1, run), RunWith(w, "agg", 4, run),
                  "agg");
}

// Also pin the hardware-concurrency default (threads=0) to the same
// transcript — the knob must change performance, never bytes.
TEST(ParallelEquivalence, DefaultThreadsMatchSerial) {
  Workload w = EquivWorkload();
  auto run = [](MediationTestbed& tb) -> Bytes {
    CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
    auto r = comm.Run(tb.JoinSql(), tb.ctx());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->Serialize() : Bytes();
  };
  ExpectIdentical(RunWith(w, "comm-hw", 1, run), RunWith(w, "comm-hw", 0, run),
                  "comm-hw");
}

}  // namespace
}  // namespace secmed
