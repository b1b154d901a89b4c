// Pinned transcript digests: the byte-level oracle for refactoring the
// protocol family. Every variant below runs over a seeded testbed with
// its own bus and session RNG, and hashes the whole execution — every
// message's sender, recipient, type and payload in send order, followed
// by the serialized result — into one SHA-256 constant.
//
// The constants are fixed: a change that moves any byte of any message
// (an extra RNG draw, a reordered loop, a different encoding) fails here.
// Each join variant is pinned twice, with the prepared cache off and with
// a PreparedDatasetRegistry attached (the cached path draws delivery
// randomness from the key-derived prepare RNG, so its transcript
// differs), and each constant must hold at 1 and at 4 threads. The
// cached variant also runs a second, warm, session against the same
// registry, which must reproduce the cold digest.
//
// Re-pin a constant only for a change that is meant to alter the
// transcript, and say in the change log why it moved.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/aggregate_protocol.h"
#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/intersection_protocol.h"
#include "core/pm_protocol.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "service/prepared_registry.h"
#include "util/serialize.h"

namespace secmed {
namespace {

// Small enough for a fast suite, large enough that every delivery loop
// runs several items and the DAS partitioner builds several buckets.
Workload DigestWorkload() {
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
Workload NarrowWorkload() {
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

MediationTestbed* MakeTestbed(const Workload& w) {
  MediationTestbed::Options opt;
  opt.seed_label = "transcript-digest";
  auto t = MediationTestbed::Create(w, opt);
  if (!t.ok()) {
    ADD_FAILURE() << t.status().ToString();
    std::abort();
  }
  return std::move(t).value().release();
}

/// Testbeds (keys, credentials, parties) shared by the whole file.
MediationTestbed& SharedTestbed() {
  static MediationTestbed* tb = MakeTestbed(DigestWorkload());
  return *tb;
}

MediationTestbed& NarrowTestbed() {
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

RunFn Aggregate(JoinAggregateSpec spec) {
  return [spec](const std::string& sql, ProtocolContext* ctx) -> Result<Bytes> {
    AggregateJoinProtocol agg(256);
    SECMED_ASSIGN_OR_RETURN(int64_t v, agg.Run(sql, spec, ctx));
    BinaryWriter w;
    w.WriteU64(static_cast<uint64_t>(v));
    return w.TakeBuffer();
  };
}

/// Hex SHA-256 of one session of `run`: transcript in send order, then
/// the serialized result. Fresh bus and session RNG per call, so the
/// digest depends only on the variant, never on the order tests run in.
std::string SessionDigest(MediationTestbed& tb, const std::string& variant,
                          const RunFn& run, size_t threads,
                          PreparedCache* cache) {
  NetworkBus bus;
  HmacDrbg rng(ToBytes("transcript-digest/" + variant));
  ProtocolContext ctx = tb.SessionContext(&bus, &rng);
  ctx.threads = threads;
  ctx.prepared = cache;
  Result<Bytes> result = run(tb.JoinSql(), &ctx);
  if (!result.ok()) {
    ADD_FAILURE() << variant << ": " << result.status().ToString();
    return "";
  }
  BinaryWriter w;
  for (const Message& m : bus.transcript()) {
    w.WriteString(m.from);
    w.WriteString(m.to);
    w.WriteString(m.type);
    w.WriteBytes(m.payload);
  }
  w.WriteBytes(result.value());
  return HexEncode(Sha256::Hash(w.TakeBuffer()));
}

PreparedDatasetRegistry MakeRegistry() {
  PreparedDatasetRegistry::Options opt;
  opt.max_bytes = 0;  // unlimited: the warm session must hit every entry
  opt.label = "transcript-digest";
  return PreparedDatasetRegistry(opt);
}

/// The uncached digest at 1 and 4 threads.
void ExpectUncached(const std::string& variant, const RunFn& run,
                    const std::string& pinned,
                    MediationTestbed& tb = SharedTestbed()) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(SessionDigest(tb, variant, run, threads, nullptr), pinned)
        << variant << " (no cache) at " << threads << " thread(s)";
  }
}

/// The cached digest at 1 and 4 threads, cold and then warm.
void ExpectCached(const std::string& variant, const RunFn& run,
                  const std::string& pinned, MediationTestbed& tb) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    PreparedDatasetRegistry registry = MakeRegistry();
    EXPECT_EQ(SessionDigest(tb, variant, run, threads, &registry), pinned)
        << variant << " (cold cache) at " << threads << " thread(s)";
    EXPECT_EQ(SessionDigest(tb, variant, run, threads, &registry), pinned)
        << variant << " (warm cache) at " << threads << " thread(s)";
  }
}

void ExpectPinned(const std::string& variant, const RunFn& run,
                  const std::string& uncached, const std::string& cached,
                  MediationTestbed& tb = SharedTestbed()) {
  ExpectUncached(variant, run, uncached, tb);
  ExpectCached(variant, run, cached, tb);
}

// ------------------------------------------------------------------ DAS --

TEST(TranscriptDigest, DasDefault) {
  ExpectPinned(
      "das", RelationRun<DasJoinProtocol>(),
      "9a52608fb7109f1523c650888d620c651d22ee433416d1d32601f4fc21c9952f",
      "62ff06d177d81116a86d5fa8a9b34a990631747425ba96881701f75f574e2f5c");
}

TEST(TranscriptDigest, DasEquiWidth) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kEquiWidth;
  ExpectPinned(
      "das-equi-width", RelationRun<DasJoinProtocol>(o),
      "146c5f2cd6ee9d7e7f7230b8fa44d0f010274a0a1e9ff4b1748576c5555fbc59",
      "4cc0c0e99b99c7981f825398d3577687beb5b4ac22bd09ca14a175df36fe201a");
}

TEST(TranscriptDigest, DasSingleton) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kSingleton;
  ExpectPinned(
      "das-singleton", RelationRun<DasJoinProtocol>(o),
      "bb8492766d2a16627b1a5159484a8a741a5c5c270b42c83528a60a3473757314",
      "18bfa8bc7fb82c0f5651b9bb67f3c39ebce009a68374b3d1241ba7f55023744e");
}

TEST(TranscriptDigest, DasSourceTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kSource;
  ExpectPinned(
      "das-source", RelationRun<DasJoinProtocol>(o),
      "dff2d4ec9c63f7ed75c04d45160ef81dac16b5f3bf03e85859d37453de898ecd",
      "9a5697c354dbeb50582427ca13033bfcfd37af02ef0da121bbace6ed2da70a34");
}

TEST(TranscriptDigest, DasMediatorTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kMediator;
  ExpectPinned(
      "das-mediator", RelationRun<DasJoinProtocol>(o),
      "86d7892207c75b04b8dc7a40ddcf252ee918419598512c1f92d547d39f85f4bc",
      "27b68dd8a9bb77c39c32b7a2e286d059a8468165b2ca54ef2f02488f61a6ce5e");
}

// ---------------------------------------------------------- commutative --

TEST(TranscriptDigest, CommutativeDefault) {
  ExpectPinned(
      "commutative", RelationRun<CommutativeJoinProtocol>(),
      "0046603d2d84bd85f674cc3b3c0ebd26758c6dbec0412fd9a4f58b89cc1214f9",
      "1149759fd1af196368358f5d6782cb5a2744aa17e67fae88837ac0da92e97535");
}

TEST(TranscriptDigest, CommutativeForwardPayloads) {
  CommutativeProtocolOptions o;
  o.forward_payloads = true;
  ExpectPinned(
      "commutative-forward", RelationRun<CommutativeJoinProtocol>(o),
      "ef3a91479dec1835fecd6fcfd737efe022c7307cb438f58c98e925faef0110d6",
      "7f91f8258901b011ccd74c3dda19c94decbd7d86aea196b152ea19218e12ad2b");
}

// ------------------------------------------------------------------- PM --

TEST(TranscriptDigest, PmEmbeddedPayloads) {
  PmProtocolOptions o;
  o.session_key_payloads = false;
  ExpectPinned(
      "pm-embedded", RelationRun<PmJoinProtocol>(o),
      "6f6d2e15fd9bdbcbb70a98e94a2a3826a9e8f24cd5ee194e4ed171d6d903855d",
      "47326f2ac3e9038be2a1f5364efbd87fb46b11c43072e21377333f369471f1de",
      NarrowTestbed());
}

// --------------------------------------------------------- intersection --

TEST(TranscriptDigest, CommutativeIntersection) {
  ExpectUncached(
      "commutative-intersection",
      RelationRun<CommutativeIntersectionProtocol>(),
      "557e9826d9ab459398961b9c49b8ceaaa5567e96dddd3ad97ed7d0916c59ca73");
}

// ------------------------------------------------ Paillier randomizers --
// The four sessions that PoolEquivalence once ran with the Paillier
// randomizer pools on and off, under their old names. The PmProtocol
// constants date from the pools: the inline encrypt loop, now the only
// one, sends the bytes the pooled path sent. The other three were
// re-pinned when the aggregate and the PM intersection moved onto the
// shared matching rounds (core/matching.h) and took over their messages.
// Their cached paths are checked against the plaintext in
// tests/service_cache_test.cc.

TEST(PoolEquivalence, PmProtocol) {
  ExpectPinned(
      "pm", RelationRun<PmJoinProtocol>(),
      "45fbc73abfabe2600251e2a8a5fb3ee1e23947723d136202a4438aecab957cb8",
      "1189578d2eb509b9a05414693dd207d58d126d66ade6af099e8f70bdfb90ddfb");
}

TEST(PoolEquivalence, AggregateCount) {
  ExpectUncached(
      "agg-count", Aggregate({AggregateFn::kCount, ""}),
      "c4dd7a2066e12f231c4ec227aecf09e8f908185ffe016141fdaf633f12d5111c");
}

TEST(PoolEquivalence, AggregateSum) {
  ExpectUncached(
      "agg-sum", Aggregate({AggregateFn::kSum, "cost"}),
      "1104160ebcee1781befe03870d3ef4a32e7b483c66f25101eaae603db9f498e6");
}

TEST(PoolEquivalence, PmIntersection) {
  ExpectUncached(
      "pm-intersection", RelationRun<PmIntersectionProtocol>(),
      "128501666e1973f474942129869d26093a3b5c3f880ef9fb54300e321cd580c6");
}

}  // namespace
}  // namespace secmed
