// Prepared-dataset cache acceptance tests (docs/SERVICE.md): under every
// delivery protocol, a warm execution is byte-identical to the cold one
// that populated the cache — same result relation bytes, same transcript
// shape, same per-party statistics — and the cache-off legacy path still
// computes the same join. Plus the registry mechanics: hit/miss/eviction
// counters, the byte budget, and explicit + version-based invalidation.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/aggregate_protocol.h"
#include "core/commutative_protocol.h"
#include "core/intersection_protocol.h"
#include "core/pm_protocol.h"
#include "core/remote.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "service/prepared_registry.h"
#include "service/query_service.h"

namespace secmed {
namespace {

Workload CacheWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 18;
  cfg.r2_tuples = 14;
  cfg.r1_domain = 9;
  cfg.r2_domain = 7;
  cfg.common_values = 4;
  cfg.seed = 4242;
  return GenerateWorkload(cfg);
}

/// One testbed for the whole file — key generation dominates otherwise.
MediationTestbed& SharedTestbed() {
  static MediationTestbed* tb = [] {
    auto t = MediationTestbed::Create(CacheWorkload());
    if (!t.ok()) {
      ADD_FAILURE() << t.status().ToString();
      std::abort();
    }
    return std::move(t).value().release();
  }();
  return *tb;
}

RunSpec SpecFor(const std::string& protocol, MediationTestbed& tb) {
  RunSpec spec;
  spec.session = 7;
  spec.protocol = protocol;
  spec.query = tb.JoinSql();
  spec.das_partitions = 4;
  spec.group_bits = 256;
  spec.rng_label = "cache-test";
  spec.use_prepared = true;
  return spec;
}

PreparedDatasetRegistry MakeRegistry(size_t max_bytes = 0) {
  PreparedDatasetRegistry::Options opt;
  opt.max_bytes = max_bytes;
  opt.label = "cache-test";
  return PreparedDatasetRegistry(opt);
}

void ExpectReportsIdentical(const RunReport& a, const RunReport& b,
                            const std::string& what) {
  EXPECT_EQ(a.result_digest, b.result_digest) << what;
  EXPECT_EQ(a.result_rows, b.result_rows) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].first, b.stats[i].first) << what;
    EXPECT_EQ(a.stats[i].second.bytes_sent, b.stats[i].second.bytes_sent)
        << what << ": " << a.stats[i].first;
    EXPECT_EQ(a.stats[i].second.messages_sent, b.stats[i].second.messages_sent)
        << what << ": " << a.stats[i].first;
  }
}

class ServiceCacheTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ServiceCacheTest, WarmRunIsByteIdenticalToCold) {
  MediationTestbed& tb = SharedTestbed();
  RunSpec spec = SpecFor(GetParam(), tb);
  PreparedDatasetRegistry reg = MakeRegistry();

  Relation cold_rel, warm_rel, recomputed_rel;
  RunReport cold = RunLocalSession(&tb, spec, &cold_rel, nullptr, &reg);
  ASSERT_TRUE(cold.ok) << cold.error;
  PreparedRegistryStats after_cold = reg.Stats();
  EXPECT_GT(after_cold.misses, 0u);
  EXPECT_GT(after_cold.entries, 0u);
  EXPECT_GT(after_cold.resident_bytes, 0u);

  RunReport warm = RunLocalSession(&tb, spec, &warm_rel, nullptr, &reg);
  ASSERT_TRUE(warm.ok) << warm.error;
  PreparedRegistryStats after_warm = reg.Stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.misses, after_cold.misses)
      << "a warm run must not recompute any prepared entry";

  // The whole execution, not just the answer, is byte-identical.
  ExpectReportsIdentical(cold, warm, "warm vs cold");
  EXPECT_EQ(cold_rel.Serialize(), warm_rel.Serialize());

  // An entry recomputed from scratch (fresh registry) yields the same
  // bytes — the prepare RNG depends on the key alone.
  PreparedDatasetRegistry reg2 = MakeRegistry();
  RunReport recomputed =
      RunLocalSession(&tb, spec, &recomputed_rel, nullptr, &reg2);
  ASSERT_TRUE(recomputed.ok) << recomputed.error;
  ExpectReportsIdentical(cold, recomputed, "recomputed vs cold");
  EXPECT_EQ(cold_rel.Serialize(), recomputed_rel.Serialize());

  // The legacy path (no cache) computes the same join — as a bag; its
  // delivery order comes from the session RNG, not the prepare RNG.
  RunSpec off = spec;
  off.use_prepared = false;
  Relation off_rel;
  RunReport off_report = RunLocalSession(&tb, off, &off_rel, nullptr, &reg);
  ASSERT_TRUE(off_report.ok) << off_report.error;
  EXPECT_TRUE(off_rel.EqualsAsBag(cold_rel));
  EXPECT_TRUE(cold_rel.EqualsAsBag(tb.ExpectedJoin()));
}

TEST_P(ServiceCacheTest, HitAndMissTranscriptsAreBitIdentical) {
  MediationTestbed& tb = SharedTestbed();
  QueryService::Options opt;
  opt.max_concurrent = 1;
  opt.use_prepared = true;
  opt.record_transcripts = true;
  opt.rng_label = std::string("svc-") + GetParam();
  QueryService::Query query;
  query.protocol = GetParam();
  query.sql = tb.JoinSql();
  query.group_bits = 256;

  // Service A: session 1 cold, session 2 warm.
  QueryService warm_service(&tb, opt);
  auto a1 = warm_service.Run(query);
  auto a2 = warm_service.Run(query);
  ASSERT_TRUE(a1.ok() && a1->status.ok());
  ASSERT_TRUE(a2.ok() && a2->status.ok());
  EXPECT_GT(warm_service.cache().Stats().hits, 0u);

  // Service B: identical, except the cache is cleared between sessions,
  // so session 2 recomputes everything.
  QueryService cold_service(&tb, opt);
  auto b1 = cold_service.Run(query);
  cold_service.cache().Clear();
  auto b2 = cold_service.Run(query);
  ASSERT_TRUE(b1.ok() && b1->status.ok());
  ASSERT_TRUE(b2.ok() && b2->status.ok());
  EXPECT_GT(cold_service.cache().Stats().invalidations, 0u);

  // Same session id, hit vs miss: bit-identical transcripts. This is the
  // determinism contract that keeps replicated TCP deployments in
  // byte-agreement whatever each process has cached.
  ASSERT_EQ(a1->transcript.size(), b1->transcript.size());
  EXPECT_EQ(a1->transcript, b1->transcript);
  ASSERT_EQ(a2->transcript.size(), b2->transcript.size());
  EXPECT_EQ(a2->transcript, b2->transcript);
  EXPECT_EQ(a2->result_digest, b2->result_digest);
  EXPECT_EQ(a1->result_digest, a2->result_digest);
}

TEST_P(ServiceCacheTest, TinyBudgetEvictsButStaysCorrect) {
  MediationTestbed& tb = SharedTestbed();
  RunSpec spec = SpecFor(GetParam(), tb);

  PreparedDatasetRegistry unbounded = MakeRegistry();
  Relation want;
  RunReport reference = RunLocalSession(&tb, spec, &want, nullptr, &unbounded);
  ASSERT_TRUE(reference.ok) << reference.error;

  // A 1-byte budget: every insert evicts its predecessors, so nearly
  // every lookup misses and recomputes — results must not change.
  PreparedDatasetRegistry tiny = MakeRegistry(1);
  Relation got;
  RunReport first = RunLocalSession(&tb, spec, &got, nullptr, &tiny);
  ASSERT_TRUE(first.ok) << first.error;
  RunReport second = RunLocalSession(&tb, spec, &got, nullptr, &tiny);
  ASSERT_TRUE(second.ok) << second.error;

  PreparedRegistryStats stats = tiny.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 1u);
  ExpectReportsIdentical(reference, first, "tiny budget, first run");
  ExpectReportsIdentical(reference, second, "tiny budget, second run");
  EXPECT_EQ(want.Serialize(), got.Serialize());
}

TEST_P(ServiceCacheTest, CatalogChangeInvalidatesByVersion) {
  MediationTestbed& tb = SharedTestbed();
  RunSpec spec = SpecFor(GetParam(), tb);
  PreparedDatasetRegistry reg = MakeRegistry();

  Relation before_rel;
  RunReport before = RunLocalSession(&tb, spec, &before_rel, nullptr, &reg);
  ASSERT_TRUE(before.ok) << before.error;
  PreparedRegistryStats cold_stats = reg.Stats();

  // Re-registering the relation bumps source1's catalog version: every
  // key minted for it changes, so the next run recomputes source1's
  // entries (new misses) while source2's still hit.
  const uint64_t version_before = tb.source1().catalog_version();
  tb.source1().AddRelation("medical", tb.workload().r1);
  EXPECT_GT(tb.source1().catalog_version(), version_before);

  Relation after_rel;
  RunReport after = RunLocalSession(&tb, spec, &after_rel, nullptr, &reg);
  ASSERT_TRUE(after.ok) << after.error;
  PreparedRegistryStats warm_stats = reg.Stats();
  EXPECT_GT(warm_stats.misses, cold_stats.misses)
      << "stale entries must not be reused after a catalog change";
  EXPECT_GT(warm_stats.hits, cold_stats.hits)
      << "the unchanged source's entries should still hit";

  // Same data, new version: the answer is unchanged. (Compared as bags:
  // the new keys reseed the prepare RNG, so the delivery *order* — and
  // with it the raw serialization — legitimately changes.)
  EXPECT_TRUE(before_rel.EqualsAsBag(after_rel));
  Relation canon_before = before_rel, canon_after = after_rel;
  canon_before.SortCanonically();
  canon_after.SortCanonically();
  EXPECT_EQ(canon_before.Serialize(), canon_after.Serialize());

  // Explicit prefix invalidation drops entries eagerly.
  PreparedRegistryStats pre = reg.Stats();
  ASSERT_GT(pre.entries, 0u);
  size_t dropped = reg.Invalidate("");
  EXPECT_EQ(dropped, pre.entries);
  EXPECT_EQ(reg.Stats().entries, 0u);
}

// The service's result digest is the digest of the plaintext join — the
// reference `secmedctl bench-load` checks every load run against — on
// the cold path (cache misses) and the warm path (hits) alike.
TEST_P(ServiceCacheTest, ResultDigestIsThePlaintextJoinDigest) {
  MediationTestbed& tb = SharedTestbed();
  QueryService::Options opt;
  opt.rng_label = "plaintext-digest";
  QueryService service(&tb, opt);
  QueryService::Query query;
  query.protocol = GetParam();
  query.sql = tb.JoinSql();
  const Bytes want = CanonicalResultDigest(tb.ExpectedJoin());
  for (const char* pass : {"cold", "warm"}) {
    auto out = service.Run(query);
    ASSERT_TRUE(out.ok()) << pass << ": " << out.status().ToString();
    ASSERT_TRUE(out->status.ok()) << pass << ": " << out->status.ToString();
    EXPECT_EQ(out->result_digest, want) << pass;
  }
  EXPECT_GT(service.cache().Stats().hits, 0u);
}

// A join, an aggregate and an intersection over one query build the same
// delivery material: join attributes, keys and relation. Each payload
// format has its own cache kind, so one registry serves all of them
// without one protocol shipping another's cached payloads.
TEST(ServiceCacheKinds, MatchingProtocolsShareOneRegistry) {
  Workload w = CacheWorkload();
  std::vector<Column> cols = w.r2.schema().columns();
  cols.push_back({"cost", ValueType::kInt64});
  Relation r2{Schema(std::move(cols))};
  int64_t cost = -5;
  for (Tuple t : w.r2.tuples()) {
    t.push_back(Value::Int(cost));
    cost += 7;
    r2.AppendUnchecked(std::move(t));
  }
  w.r2 = std::move(r2);
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  const Relation expected = tb.ExpectedJoin();
  const size_t cost_col = expected.schema().IndexOf("cost").value();
  const size_t join_col = expected.schema().IndexOf("ajoin").value();
  int64_t expected_sum = 0;
  std::set<int64_t> expected_values;
  for (const Tuple& t : expected.tuples()) {
    expected_sum += t[cost_col].as_int();
    expected_values.insert(t[join_col].as_int());
  }
  auto values_of = [](const Relation& r) {
    std::set<int64_t> values;
    for (const Tuple& t : r.tuples()) values.insert(t[0].as_int());
    return values;
  };

  PreparedDatasetRegistry reg = MakeRegistry();
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    NetworkBus bus;
    HmacDrbg rng(ToBytes(std::string("cache-kinds/") + pass));
    ProtocolContext ctx = tb.SessionContext(&bus, &rng);
    ctx.prepared = &reg;
    auto comm = CommutativeJoinProtocol({256, false}).Run(tb.JoinSql(), &ctx);
    ASSERT_TRUE(comm.ok()) << comm.status().ToString();
    EXPECT_TRUE(comm->EqualsAsBag(expected));
    AggregateJoinProtocol agg(256);
    auto count = agg.Run(tb.JoinSql(), {AggregateFn::kCount, ""}, &ctx);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, static_cast<int64_t>(expected.size()));
    auto sum = agg.Run(tb.JoinSql(), {AggregateFn::kSum, "cost"}, &ctx);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    EXPECT_EQ(*sum, expected_sum);
    auto comm_ix = CommutativeIntersectionProtocol(256).Run(tb.JoinSql(), &ctx);
    ASSERT_TRUE(comm_ix.ok()) << comm_ix.status().ToString();
    EXPECT_EQ(values_of(*comm_ix), expected_values);
    auto pm = PmJoinProtocol().Run(tb.JoinSql(), &ctx);
    ASSERT_TRUE(pm.ok()) << pm.status().ToString();
    EXPECT_TRUE(pm->EqualsAsBag(expected));
    auto pm_ix = PmIntersectionProtocol().Run(tb.JoinSql(), &ctx);
    ASSERT_TRUE(pm_ix.ok()) << pm_ix.status().ToString();
    EXPECT_EQ(values_of(*pm_ix), expected_values);
  }
  EXPECT_GT(reg.Stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ServiceCacheTest,
                         ::testing::Values("commutative", "das", "pm"));

}  // namespace
}  // namespace secmed
