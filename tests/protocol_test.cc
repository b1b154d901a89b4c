#include <gtest/gtest.h>

#include <memory>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/leakage.h"
#include "core/pm_protocol.h"
#include "protocol_test_util.h"
#include "relational/algebra.h"

namespace secmed {
namespace {

// ---------------------------------------------------------------------------
// Correctness of each protocol against the trusted-mediator oracle.
// ---------------------------------------------------------------------------

std::unique_ptr<JoinProtocol> MakeProtocol(const std::string& which) {
  if (which == "das") {
    return std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kEquiDepth, 3});
  }
  if (which == "das-singleton") {
    return std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kSingleton, 0});
  }
  if (which == "das-onebucket") {
    return std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kEquiDepth, 1});
  }
  if (which == "commutative") {
    return std::make_unique<CommutativeJoinProtocol>(
        CommutativeProtocolOptions{256, false});
  }
  if (which == "commutative-paper") {
    return std::make_unique<CommutativeJoinProtocol>(
        CommutativeProtocolOptions{256, true});
  }
  if (which == "pm") {
    return std::make_unique<PmJoinProtocol>(PmProtocolOptions{true});
  }
  if (which == "pm-naive") {
    return std::make_unique<PmJoinProtocol>(PmProtocolOptions{false});
  }
  return nullptr;
}

class ProtocolCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(ProtocolCorrectness, MatchesPlaintextJoin) {
  TestEnvironment env(SmallWorkload(11), GetParam());
  auto protocol = MakeProtocol(GetParam());
  ASSERT_NE(protocol, nullptr);
  Relation result = protocol->Run(env.JoinSql(), env.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()))
      << "protocol " << GetParam() << ": got " << result.size()
      << " rows, expected " << env.ExpectedJoin().size();
}

TEST_P(ProtocolCorrectness, MediatorNeverSeesPlaintext) {
  TestEnvironment env(SmallWorkload(12), GetParam() + "-leak");
  auto protocol = MakeProtocol(GetParam());
  ASSERT_NE(protocol, nullptr);
  ASSERT_TRUE(protocol->Run(env.JoinSql(), env.ctx()).ok());
  LeakageReport report = AnalyzeLeakage(
      GetParam(), env.bus(), env.mediator().name(), env.client().name(),
      env.workload().r1, env.workload().r2, env.workload().join_attribute, 0);
  EXPECT_FALSE(report.mediator_saw_plaintext)
      << "hits: " << report.plaintext_hits.size();
}

TEST_P(ProtocolCorrectness, EmptyIntersection) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 10;
  cfg.r2_tuples = 10;
  cfg.r1_domain = 5;
  cfg.r2_domain = 5;
  cfg.common_values = 0;
  cfg.seed = 13;
  TestEnvironment env(GenerateWorkload(cfg), GetParam() + "-empty");
  auto protocol = MakeProtocol(GetParam());
  Relation result = protocol->Run(env.JoinSql(), env.ctx()).value();
  EXPECT_EQ(result.size(), 0u);
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()));
}

TEST_P(ProtocolCorrectness, FullOverlap) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 12;
  cfg.r2_tuples = 12;
  cfg.r1_domain = 6;
  cfg.r2_domain = 6;
  cfg.common_values = 6;
  cfg.seed = 14;
  TestEnvironment env(GenerateWorkload(cfg), GetParam() + "-full");
  auto protocol = MakeProtocol(GetParam());
  Relation result = protocol->Run(env.JoinSql(), env.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()));
  EXPECT_GT(result.size(), 0u);
}

TEST_P(ProtocolCorrectness, DuplicateJoinValues) {
  // Multiple tuples per join value on both sides: the result must contain
  // the full cross product per value.
  WorkloadConfig cfg;
  cfg.r1_tuples = 20;
  cfg.r2_tuples = 20;
  cfg.r1_domain = 4;
  cfg.r2_domain = 4;
  cfg.common_values = 4;
  cfg.seed = 15;
  TestEnvironment env(GenerateWorkload(cfg), GetParam() + "-dup");
  auto protocol = MakeProtocol(GetParam());
  Relation result = protocol->Run(env.JoinSql(), env.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()));
  // 20 tuples over 4 values on each side: expected size well above 20.
  EXPECT_GT(result.size(), 20u);
}

// pm-naive is exercised separately: its payloads only fit the Paillier
// plaintext space for tiny tuple sets (the very limitation footnote 2 of
// the paper addresses).
INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolCorrectness,
                         ::testing::Values("das", "das-singleton",
                                           "das-onebucket", "commutative",
                                           "commutative-paper", "pm"));

// Workload small enough for whole tuple sets to ride inside the
// homomorphic payload: one short tuple per join value.
Workload TinyTupleSetWorkload(uint64_t seed) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 8;
  cfg.r2_tuples = 6;
  cfg.r1_domain = 8;
  cfg.r2_domain = 6;
  cfg.common_values = 3;
  cfg.r1_extra_columns = 1;
  cfg.r2_extra_columns = 1;
  cfg.payload_length = 6;
  cfg.seed = seed;
  return GenerateWorkload(cfg);
}

TEST(PmNaiveTest, MatchesPlaintextJoinOnTinyTupleSets) {
  TestEnvironment env(TinyTupleSetWorkload(41), "pm-naive-tiny");
  PmJoinProtocol naive(PmProtocolOptions{false});
  Relation result = naive.Run(env.JoinSql(), env.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()));
}

TEST(PmNaiveTest, EmptyIntersectionOnTinyTupleSets) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 5;
  cfg.r2_tuples = 5;
  cfg.r1_domain = 5;
  cfg.r2_domain = 5;
  cfg.common_values = 0;
  cfg.r1_extra_columns = 1;
  cfg.r2_extra_columns = 1;
  cfg.payload_length = 6;
  cfg.seed = 42;
  TestEnvironment env(GenerateWorkload(cfg), "pm-naive-empty");
  PmJoinProtocol naive(PmProtocolOptions{false});
  Relation result = naive.Run(env.JoinSql(), env.ctx()).value();
  EXPECT_EQ(result.size(), 0u);
}

TEST(PmNaiveTest, MediatorNeverSeesPlaintext) {
  TestEnvironment env(TinyTupleSetWorkload(43), "pm-naive-leak");
  PmJoinProtocol naive(PmProtocolOptions{false});
  ASSERT_TRUE(naive.Run(env.JoinSql(), env.ctx()).ok());
  LeakageReport report = AnalyzeLeakage(
      "pm-naive", env.bus(), env.mediator().name(), env.client().name(),
      env.workload().r1, env.workload().r2, env.workload().join_attribute, 0);
  EXPECT_FALSE(report.mediator_saw_plaintext);
}

// ---------------------------------------------------------------------------
// Protocol-specific behaviours from Table 1 / Section 6.
// ---------------------------------------------------------------------------

TEST(DasProtocolTest, ClientReceivesSupersetMediatorLearnsSizes) {
  TestEnvironment env(SmallWorkload(21), "das-super");
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  Relation result = das.Run(env.JoinSql(), env.ctx()).value();
  // Superset property: |RC| >= |result|.
  EXPECT_GE(das.last_server_result_size(), result.size());
  // Client interacts twice with the mediator (Section 6).
  EXPECT_EQ(env.bus().StatsOf(env.client().name()).interactions, 2u);
  // Sources send data once.
  EXPECT_EQ(env.bus().StatsOf(env.source1().name()).interactions, 1u);
  EXPECT_EQ(env.bus().StatsOf(env.source2().name()).interactions, 1u);
}

TEST(DasProtocolTest, SingletonPartitioningIsExact) {
  TestEnvironment env(SmallWorkload(22), "das-exact");
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kSingleton, 0});
  Relation result = das.Run(env.JoinSql(), env.ctx()).value();
  EXPECT_EQ(das.last_server_result_size(), result.size());
}

TEST(CommutativeProtocolTest, ClientReceivesExactResultSourcesInteractTwice) {
  TestEnvironment env(SmallWorkload(23), "comm-exact");
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  Relation result = comm.Run(env.JoinSql(), env.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()));

  // The mediator learns the intersection size (Table 1): matched values =
  // |domactive(R1) ∩ domactive(R2)|.
  auto d1 = env.workload().r1.ActiveDomain("ajoin").value();
  auto d2 = env.workload().r2.ActiveDomain("ajoin").value();
  size_t common = 0;
  for (const Value& v : d1) {
    for (const Value& u : d2) common += v == u;
  }
  EXPECT_EQ(comm.last_intersection_size(), common);

  // Sources interact twice with the mediator (Section 6).
  EXPECT_EQ(env.bus().StatsOf(env.source1().name()).interactions, 2u);
  EXPECT_EQ(env.bus().StatsOf(env.source2().name()).interactions, 2u);
  // Client interacts once (just the query).
  EXPECT_EQ(env.bus().StatsOf(env.client().name()).interactions, 1u);
}

TEST(CommutativeProtocolTest, IdOptimizationShrinksSourceTraffic) {
  // Footnote 1: with ID values, the encrypted tuple sets do not travel to
  // the opposite source, cutting source-bound traffic.
  TestEnvironment env1(SmallWorkload(24), "comm-opt");
  CommutativeJoinProtocol optimized(CommutativeProtocolOptions{256, false});
  ASSERT_TRUE(optimized.Run(env1.JoinSql(), env1.ctx()).ok());
  size_t opt_bytes = env1.bus().StatsOf(env1.source1().name()).bytes_received +
                     env1.bus().StatsOf(env1.source2().name()).bytes_received;

  TestEnvironment env2(SmallWorkload(24), "comm-paper");
  CommutativeJoinProtocol paper(CommutativeProtocolOptions{256, true});
  ASSERT_TRUE(paper.Run(env2.JoinSql(), env2.ctx()).ok());
  size_t paper_bytes =
      env2.bus().StatsOf(env2.source1().name()).bytes_received +
      env2.bus().StatsOf(env2.source2().name()).bytes_received;

  EXPECT_LT(opt_bytes, paper_bytes);
}

TEST(PmProtocolTest, ClientDecryptsNPlusMEvaluations) {
  TestEnvironment env(SmallWorkload(25), "pm-count");
  PmJoinProtocol pm;
  Relation result = pm.Run(env.JoinSql(), env.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedJoin()));
  size_t n = env.workload().r1.ActiveDomain("ajoin").value().size();
  size_t m = env.workload().r2.ActiveDomain("ajoin").value().size();
  EXPECT_EQ(pm.last_evaluation_count(), n + m);
  // Sources interact twice with the mediator (Section 6).
  EXPECT_EQ(env.bus().StatsOf(env.source1().name()).interactions, 2u);
  EXPECT_EQ(env.bus().StatsOf(env.source2().name()).interactions, 2u);
}

TEST(PmProtocolTest, NaivePayloadsFailGracefullyWhenTooLarge) {
  // Large tuple sets cannot ride inside the polynomial payload without
  // footnote 2; the protocol reports the problem instead of corrupting.
  WorkloadConfig cfg;
  cfg.r1_tuples = 40;
  cfg.r2_tuples = 5;
  cfg.r1_domain = 2;  // ~20 tuples per join value -> huge tuple sets
  cfg.r2_domain = 2;
  cfg.common_values = 2;
  cfg.payload_length = 40;
  cfg.seed = 26;
  TestEnvironment env(GenerateWorkload(cfg), "pm-too-big");
  PmJoinProtocol naive(PmProtocolOptions{false});
  auto res = naive.Run(env.JoinSql(), env.ctx());
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

  // The footnote-2 mode handles the same workload.
  TestEnvironment env2(GenerateWorkload(cfg), "pm-big-ok");
  PmJoinProtocol optimized(PmProtocolOptions{true});
  Relation result = optimized.Run(env2.JoinSql(), env2.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(env2.ExpectedJoin()));
}

// ---------------------------------------------------------------------------
// Access control composes with the protocols: filtered partial results.
// ---------------------------------------------------------------------------

TEST(ProtocolAccessControlTest, RowFilterShrinksGlobalResult) {
  Workload w = SmallWorkload(27);
  TestEnvironment env(w, "acl");
  // Only rows with ajoin < 2 are released by source1.
  AccessPolicy policy;
  policy.AddRule({"role", "physician",
                  Predicate::Compare(Predicate::Operand::Col("ajoin"),
                                     CompareOp::kLt,
                                     Predicate::Operand::Lit(Value::Int(2))),
                  {}});
  env.source1().SetPolicy("medical", policy);

  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  Relation result = comm.Run(env.JoinSql(), env.ctx()).value();

  // Oracle: join of the filtered r1 with full r2.
  Relation filtered =
      Select(w.r1, Predicate::Compare(Predicate::Operand::Col("ajoin"),
                                      CompareOp::kLt,
                                      Predicate::Operand::Lit(Value::Int(2))))
          .value();
  Relation expected =
      NaturalJoin(Qualify(filtered, "medical"), Qualify(w.r2, "billing"))
          .value();
  EXPECT_TRUE(result.EqualsAsBag(expected));
  EXPECT_LT(result.size(), env.ExpectedJoin().size());
}

TEST(ProtocolAccessControlTest, DeniedClientGetsNoData) {
  TestEnvironment env(SmallWorkload(28), "acl-deny");
  AccessPolicy deny_all;
  deny_all.AddRule({"role", "admin", Predicate::True(), {}});
  env.source1().SetPolicy("medical", deny_all);

  DasJoinProtocol das;
  auto res = das.Run(env.JoinSql(), env.ctx());
  EXPECT_FALSE(res.ok());
}

// ---------------------------------------------------------------------------
// Request phase details.
// ---------------------------------------------------------------------------

TEST(RequestPhaseTest, PlanAndPartialResults) {
  TestEnvironment env(SmallWorkload(29), "req");
  RequestState state = RunRequestPhase(env.JoinSql(), env.ctx()).value();
  EXPECT_EQ(state.plan.join_attribute, "ajoin");
  EXPECT_EQ(state.r1.size(), env.workload().r1.size());
  EXPECT_EQ(state.r2.size(), env.workload().r2.size());
  EXPECT_EQ(state.client_key1, env.client().public_key());
  EXPECT_EQ(state.client_key2, env.client().public_key());
  // Two partial-query messages left the mediator.
  EXPECT_EQ(env.bus().StatsOf(env.mediator().name()).messages_sent, 2u);
}

TEST(RequestPhaseTest, IncompleteContextRejected) {
  ProtocolContext empty;
  EXPECT_FALSE(RunRequestPhase("SELECT * FROM a NATURAL JOIN b", &empty).ok());
}

TEST(JoinedSchemaTest, MergesMinusJoinColumn) {
  Schema s1({{"m.ajoin", ValueType::kInt64}, {"m.x", ValueType::kString}});
  Schema s2({{"b.ajoin", ValueType::kInt64}, {"b.y", ValueType::kString}});
  Schema joined = JoinedSchema(s1, s2, "ajoin").value();
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined.column(0).name, "m.ajoin");
  EXPECT_EQ(joined.column(2).name, "b.y");
  EXPECT_FALSE(JoinedSchema(s1, s2, "nope").ok());
}

}  // namespace
}  // namespace secmed
