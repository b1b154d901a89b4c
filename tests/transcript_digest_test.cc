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
      "dfdae6c0135b6050b1af6138c5daab13b7967b3db571026ad5d148cdb03bfd8d",
      "1eb3f6ef2199b38a7a5e78eb37ef1a3dd3d849bd9dc63b28f09a28e985e89b45");
}

TEST(TranscriptDigest, DasEquiWidth) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kEquiWidth;
  ExpectPinned(
      "das-equi-width", RelationRun<DasJoinProtocol>(o),
      "8bf55fe861f34bd582a3573c1d149d5955e2ac97e600c7df63368f43843b0e00",
      "c0b72e4b678311ca5e40fba6190be14c276d21eefc028479ba6f1d652f4606c3");
}

TEST(TranscriptDigest, DasSingleton) {
  DasProtocolOptions o;
  o.strategy = PartitionStrategy::kSingleton;
  ExpectPinned(
      "das-singleton", RelationRun<DasJoinProtocol>(o),
      "df36b72776a4b67d12246eebfafafa20457e14997d1eef22fea58b215d8d79ab",
      "47a2bbdfe615ee45ca1462326b604ce798f4384fd0c64e84ca1d6cb90dd2f7df");
}

TEST(TranscriptDigest, DasSourceTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kSource;
  ExpectPinned(
      "das-source", RelationRun<DasJoinProtocol>(o),
      "27d27edee7b0c5c7191b2655a866488cc671322da5c5c2a57a26496548dcc1bb",
      "f0d73d777194dec19ae036340021067c0520bf4614219d387b36bfb4fe8df439");
}

TEST(TranscriptDigest, DasMediatorTranslator) {
  DasProtocolOptions o;
  o.translator = DasTranslatorSetting::kMediator;
  ExpectPinned(
      "das-mediator", RelationRun<DasJoinProtocol>(o),
      "5390982c30ccd93472d2f8e80069eee29c0a932409bc2bdd6aa5c67faa1c1fa4",
      "8699f09c6f75d9004500cd5a3182b744db52e443394fd10caddeaa62ce79594c");
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
