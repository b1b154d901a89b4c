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
#include <string>

#include "core/aggregate_protocol.h"
#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/intersection_protocol.h"
#include "core/pm_protocol.h"
#include "crypto/sha256.h"
#include "pinned_sessions.h"
#include "util/serialize.h"

namespace secmed {
namespace {

using pinned::MakeRegistry;
using pinned::NarrowTestbed;
using pinned::RelationRun;
using pinned::RunFn;
using pinned::SharedTestbed;

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
/// the serialized result.
std::string SessionDigest(MediationTestbed& tb, const std::string& variant,
                          const RunFn& run, size_t threads,
                          PreparedCache* cache) {
  NetworkBus bus;
  Result<Bytes> result =
      pinned::RunSession(tb, variant, run, threads, cache, &bus);
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
      "2910f4c17c9002ef2c0d7ef88adb585faffe379181a9a04946c876ce31a7a88e",
      "dd768013eaf13c7af5815aa3a90f3e8180719fb6f0bc703cbba92bd327cf9784");
}

TEST(TranscriptDigest, DasEquiWidth) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kEquiWidth;
  ExpectPinned(
      "das-equi-width", RelationRun<DasJoinProtocol>(o),
      "c0ff14b959f4739308b36929022df99659c9ad2524dabea7e8102e0be865c6c5",
      "bb7071467cec508d966846e6d4754765579e96eb063fd4ca632526646352bce1");
}

TEST(TranscriptDigest, DasSingleton) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kSingleton;
  ExpectPinned(
      "das-singleton", RelationRun<DasJoinProtocol>(o),
      "1602c3fc1b0637eae62f0aeca410d775a6ebf7c1968467e6f29f54ec0cd1cd0c",
      "72af8963e8b54d5e640f4caf41575eb316765eb3fbe505ccd8ee11d272e2051d");
}

TEST(TranscriptDigest, DasSourceTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kSource;
  ExpectPinned(
      "das-source", RelationRun<DasJoinProtocol>(o),
      "24387a72689797e6cd033febab8932411cf0267f0cd3aa7c801c65b593ba7acf",
      "6a459b6b8728ab0c228b3d2e511f69f37e425f941f10d68cb35adf6423c49d75");
}

TEST(TranscriptDigest, DasMediatorTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kMediator;
  ExpectPinned(
      "das-mediator", RelationRun<DasJoinProtocol>(o),
      "063ad6759cb38bebfa78837db4731ad5de1b0dfe6a42fb44a10d0650ba6010fc",
      "4bbcf4edfddf9d2ef93563d08bab260b3a44fccb7f573534e7bcafde6bbffdc3");
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
