// Pinned Montgomery kernel work: the compute oracle of the join family.
// Every join session that transcript_digest_test.cc pins runs here again
// (same workloads, testbeds and session RNGs, from pinned_sessions.h),
// and the number of kernel multiplications and squarings it performs is
// compared with a constant. The counts are taken around Run only: the
// testbed's key generation also uses the kernel and happens before.
//
// Each session is pinned twice: uncached, and warm, as the second session
// against a prepared registry that the first (cold) one filled. Both
// constants must hold at 1 and at 4 threads. A change that adds or saves
// an exponentiation anywhere in a protocol moves a constant here, even
// when the transcript stays the same; a prepared cache that stops hitting
// moves a warm constant.
//
// Re-pin a constant only for a change that is meant to alter the work,
// and say in the change log why it moved.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "bigint/mont_kernel.h"
#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "pinned_sessions.h"

namespace secmed {
namespace {

using pinned::MakeRegistry;
using pinned::NarrowTestbed;
using pinned::RelationRun;
using pinned::RunFn;
using pinned::SharedTestbed;

struct OpCounts {
  uint64_t muls = 0;
  uint64_t sqrs = 0;

  bool operator==(const OpCounts& o) const {
    return muls == o.muls && sqrs == o.sqrs;
  }
};

std::ostream& operator<<(std::ostream& os, const OpCounts& c) {
  return os << "{" << c.muls << " mul, " << c.sqrs << " sqr}";
}

/// Kernel calls of one session of `run`.
OpCounts SessionOps(MediationTestbed& tb, const std::string& variant,
                    const RunFn& run, size_t threads, PreparedCache* cache) {
  NetworkBus bus;
  const montk::KernelCounters before = montk::ReadKernelCounters();
  Result<Bytes> result =
      pinned::RunSession(tb, variant, run, threads, cache, &bus);
  const montk::KernelCounters after = montk::ReadKernelCounters();
  if (!result.ok()) {
    ADD_FAILURE() << variant << ": " << result.status().ToString();
  }
  return {after.muls - before.muls, after.sqrs - before.sqrs};
}

/// The uncached and the warm-cached counts at 1 and 4 threads.
void ExpectOps(const std::string& variant, const RunFn& run,
               OpCounts uncached, OpCounts warm,
               MediationTestbed& tb = SharedTestbed()) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(SessionOps(tb, variant, run, threads, nullptr), uncached)
        << variant << " (no cache) at " << threads << " thread(s)";
    PreparedDatasetRegistry registry = MakeRegistry();
    (void)SessionOps(tb, variant, run, threads, &registry);  // fills it
    EXPECT_EQ(SessionOps(tb, variant, run, threads, &registry), warm)
        << variant << " (warm cache) at " << threads << " thread(s)";
  }
}

// ------------------------------------------------------------------ DAS --

TEST(OpCount, DasDefault) {
  ExpectOps("das", RelationRun<DasJoinProtocol>(), {448, 2124},
            {24, 68});
}

TEST(OpCount, DasEquiWidth) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kEquiWidth;
  ExpectOps("das-equi-width", RelationRun<DasJoinProtocol>(o),
            {448, 2124}, {24, 68});
}

TEST(OpCount, DasSingleton) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kSingleton;
  ExpectOps("das-singleton", RelationRun<DasJoinProtocol>(o),
            {448, 2124}, {24, 68});
}

TEST(OpCount, DasSourceTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kSource;
  ExpectOps("das-source", RelationRun<DasJoinProtocol>(o), {448, 2124},
            {24, 68});
}

TEST(OpCount, DasMediatorTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kMediator;
  ExpectOps("das-mediator", RelationRun<DasJoinProtocol>(o),
            {448, 2124}, {24, 68});
}

// ---------------------------------------------------------- commutative --

TEST(OpCount, CommutativeDefault) {
  ExpectOps("commutative", RelationRun<CommutativeJoinProtocol>(),
            {6808, 32914}, {24, 68});
}

TEST(OpCount, CommutativeForwardPayloads) {
  CommutativeProtocolOptions o;
  o.forward_payloads = true;
  ExpectOps("commutative-forward", RelationRun<CommutativeJoinProtocol>(o),
            {6688, 32854}, {24, 68});
}

// ------------------------------------------------------------------- PM --

TEST(OpCount, PmEmbeddedPayloads) {
  PmProtocolOptions o;
  o.session_key_payloads = false;
  ExpectOps("pm-embedded", RelationRun<PmJoinProtocol>(o), {21773, 101437},
            {24, 68}, NarrowTestbed());
}

TEST(OpCount, PmProtocol) {
  ExpectOps("pm", RelationRun<PmJoinProtocol>(), {19176, 90086}, {24, 68});
}

}  // namespace
}  // namespace secmed
