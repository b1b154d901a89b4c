#ifndef SECMED_TESTS_PINNED_SESSIONS_H_
#define SECMED_TESTS_PINNED_SESSIONS_H_

// The seeded protocol sessions that the pinned suites share:
// transcript_digest_test.cc pins their bytes and op_count_test.cc their
// Montgomery kernel work. Both suites run the same workloads over the
// same testbeds, so a pin in one always describes a session of the other.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "service/prepared_registry.h"

namespace secmed {
namespace pinned {

// Small enough for a fast suite, large enough that every delivery loop
// runs several items and the DAS partitioner builds several buckets.
inline Workload DigestWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 28;
  cfg.r2_tuples = 22;
  cfg.r1_domain = 11;
  cfg.r2_domain = 9;
  cfg.common_values = 5;
  cfg.r1_extra_columns = 2;
  cfg.r2_extra_columns = 1;
  cfg.seed = 911;
  Workload w = GenerateWorkload(cfg);
  // An integer "cost" column on r2 for the SUM aggregate.
  std::vector<Column> cols = w.r2.schema().columns();
  cols.push_back({"cost", ValueType::kInt64});
  Relation r2{Schema(std::move(cols))};
  int64_t v = -5;
  for (const Tuple& t : w.r2.tuples()) {
    Tuple nt = t;
    nt.push_back(Value::Int(v));
    v += 7;
    r2.AppendUnchecked(std::move(nt));
  }
  w.r2 = std::move(r2);
  return w;
}

// One tuple per join value and no payload columns: every tuple set fits
// in the Paillier plaintext, as PM without session keys requires.
inline Workload NarrowWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 12;
  cfg.r2_tuples = 10;
  cfg.r1_domain = 12;
  cfg.r2_domain = 10;
  cfg.common_values = 4;
  cfg.r1_extra_columns = 0;
  cfg.r2_extra_columns = 0;
  cfg.seed = 912;
  return GenerateWorkload(cfg);
}

inline MediationTestbed* MakeTestbed(const Workload& w) {
  MediationTestbed::Options opt;
  opt.seed_label = "transcript-digest";
  auto t = MediationTestbed::Create(w, opt);
  if (!t.ok()) {
    ADD_FAILURE() << t.status().ToString();
    std::abort();
  }
  return std::move(t).value().release();
}

/// Testbeds (keys, credentials, parties) shared by a whole suite.
inline MediationTestbed& SharedTestbed() {
  static MediationTestbed* tb = MakeTestbed(DigestWorkload());
  return *tb;
}

inline MediationTestbed& NarrowTestbed() {
  static MediationTestbed* tb = MakeTestbed(NarrowWorkload());
  return *tb;
}

/// Runs one protocol over `ctx` and returns its serialized result.
using RunFn = std::function<Result<Bytes>(const std::string& sql,
                                          ProtocolContext* ctx)>;

/// Runs protocol P, constructed from `args`, and serializes its relation.
template <typename P, typename... Args>
RunFn RelationRun(Args... args) {
  return [=](const std::string& sql, ProtocolContext* ctx) -> Result<Bytes> {
    P protocol(args...);
    SECMED_ASSIGN_OR_RETURN(Relation r, protocol.Run(sql, ctx));
    return r.Serialize();
  };
}

/// Runs one session of `variant` over `bus`, with the variant's own
/// session RNG, and returns its serialized result. The RNG depends only
/// on the variant, never on the order tests run in.
inline Result<Bytes> RunSession(MediationTestbed& tb,
                                const std::string& variant, const RunFn& run,
                                size_t threads, PreparedCache* cache,
                                NetworkBus* bus) {
  HmacDrbg rng(ToBytes("transcript-digest/" + variant));
  ProtocolContext ctx = tb.SessionContext(bus, &rng);
  ctx.threads = threads;
  ctx.prepared = cache;
  return run(tb.JoinSql(), &ctx);
}

/// A registry that never evicts, so a warm session hits every entry.
inline PreparedDatasetRegistry MakeRegistry() {
  PreparedDatasetRegistry::Options opt;
  opt.max_bytes = 0;
  opt.label = "transcript-digest";
  return PreparedDatasetRegistry(opt);
}

}  // namespace pinned
}  // namespace secmed

#endif  // SECMED_TESTS_PINNED_SESSIONS_H_
