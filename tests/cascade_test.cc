// Tests of the successive-join cascade (paper Section 8: mediator
// hierarchies executing several join queries successively).

#include "core/cascade.h"

#include <gtest/gtest.h>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "core/remote.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "plan/planner.h"
#include "mediation/client.h"
#include "mediation/datasource.h"
#include "mediation/mediator.h"
#include "mediation/network.h"
#include "relational/algebra.h"
#include "service/query_service.h"

namespace secmed {
namespace {

// A three-source environment: patients ⋈ treatments ⋈ stock.
class CascadeEnv {
 public:
  CascadeEnv()
      : rng_(ToBytes("cascade-env")),
        ca_(CertificationAuthority::Create(1024, &rng_).value()),
        client_(Client::Create("client", 1024, 1024, &rng_).value()),
        mediator_("base-mediator"),
        hospital_("hospital"),
        clinic_("clinic"),
        pharmacy_("pharmacy"),
        lab_("lab") {
    EXPECT_TRUE(client_.AcquireCredential(ca_, {{"role", "analyst"}}).ok());

    patients_ = Relation{Schema({{"pid", ValueType::kInt64},
                                 {"diag", ValueType::kString}})};
    (void)patients_.Append({Value::Int(1), Value::Str("flu")});
    (void)patients_.Append({Value::Int(2), Value::Str("gout")});
    (void)patients_.Append({Value::Int(3), Value::Str("flu")});
    (void)patients_.Append({Value::Int(4), Value::Str("acne")});

    treatments_ = Relation{Schema({{"diag", ValueType::kString},
                                   {"drug", ValueType::kString}})};
    (void)treatments_.Append({Value::Str("flu"), Value::Str("tamiflu")});
    (void)treatments_.Append({Value::Str("gout"), Value::Str("allopurinol")});
    (void)treatments_.Append({Value::Str("flu"), Value::Str("rest")});

    stock_ = Relation{Schema({{"drug", ValueType::kString},
                              {"units", ValueType::kInt64}})};
    (void)stock_.Append({Value::Str("tamiflu"), Value::Int(10)});
    (void)stock_.Append({Value::Str("allopurinol"), Value::Int(0)});
    (void)stock_.Append({Value::Str("aspirin"), Value::Int(99)});

    // A fourth-party table joining patients on pid: with it the
    // treatments/vitals clauses commute, so join-order tests have a
    // valid non-identity permutation (stock only joins via treatments).
    vitals_ = Relation{Schema({{"pid", ValueType::kInt64},
                               {"temp", ValueType::kInt64}})};
    (void)vitals_.Append({Value::Int(1), Value::Int(39)});
    (void)vitals_.Append({Value::Int(2), Value::Int(37)});
    (void)vitals_.Append({Value::Int(4), Value::Int(38)});

    for (DataSource* s : {&hospital_, &clinic_, &pharmacy_, &lab_}) {
      s->set_ca_key(ca_.public_key());
    }
    hospital_.AddRelation("patients", patients_);
    clinic_.AddRelation("treatments", treatments_);
    pharmacy_.AddRelation("stock", stock_);
    lab_.AddRelation("vitals", vitals_);

    mediator_.RegisterTable("patients", "hospital", patients_.schema());
    mediator_.RegisterTable("treatments", "clinic", treatments_.schema());
    mediator_.RegisterTable("stock", "pharmacy", stock_.schema());
    mediator_.RegisterTable("vitals", "lab", vitals_.schema());

    ctx_.client = &client_;
    ctx_.mediator = &mediator_;
    ctx_.sources = {{"hospital", &hospital_},
                    {"clinic", &clinic_},
                    {"pharmacy", &pharmacy_},
                    {"lab", &lab_}};
    ctx_.bus = &bus_;
    ctx_.rng = &rng_;
  }

  Relation ExpectedThreeWay() {
    Relation l1 = NaturalJoin(Qualify(patients_, "patients"),
                              Qualify(treatments_, "treatments"))
                      .value();
    // Cascade unqualifies intermediates, so the oracle does the same.
    Relation l1u = UnqualifyRelation(l1).value();
    return NaturalJoin(Qualify(l1u, "cascade_result_1"),
                       Qualify(stock_, "stock"))
        .value();
  }

  ProtocolContext* ctx() { return &ctx_; }
  const RsaPublicKey& ca_key() const { return ca_.public_key(); }
  NetworkBus& bus() { return bus_; }

 private:
  HmacDrbg rng_;
  CertificationAuthority ca_;
  Client client_;
  Mediator mediator_;
  DataSource hospital_, clinic_, pharmacy_, lab_;
  Relation patients_, treatments_, stock_, vitals_;
  NetworkBus bus_;
  ProtocolContext ctx_;
};

TEST(UnqualifyTest, StripsQualifiers) {
  Relation r{Schema({{"a.x", ValueType::kInt64}, {"b.y", ValueType::kInt64}})};
  Relation u = UnqualifyRelation(r).value();
  EXPECT_EQ(u.schema().column(0).name, "x");
  EXPECT_EQ(u.schema().column(1).name, "y");
}

TEST(UnqualifyTest, DetectsCollisions) {
  Relation r{Schema({{"a.x", ValueType::kInt64}, {"b.x", ValueType::kInt64}})};
  EXPECT_FALSE(UnqualifyRelation(r).ok());
}

TEST(CascadeTest, SingleJoinBehavesLikeProtocol) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  Relation result =
      cascade.Run("SELECT * FROM patients NATURAL JOIN treatments", env.ctx())
          .value();
  EXPECT_EQ(result.size(), 5u);  // flu x2 patients x2 treatments + gout
}

TEST(CascadeTest, ThreeWayJoinCommutative) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  Relation result =
      cascade
          .Run("SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN "
               "stock",
               env.ctx())
          .value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedThreeWay()));
  // flu->tamiflu rows for patients 1 and 3 plus gout->allopurinol;
  // flu->rest has no stock row and drops out.
  EXPECT_EQ(result.size(), 3u);
}

TEST(CascadeTest, ThreeWayJoinDas) {
  CascadeEnv env;
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  CascadeExecutor cascade(&das, env.ca_key());
  Relation result =
      cascade
          .Run("SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN "
               "stock",
               env.ctx())
          .value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedThreeWay()));
}

TEST(CascadeTest, ThreeWayJoinPm) {
  CascadeEnv env;
  PmJoinProtocol pm;
  CascadeExecutor cascade(&pm, env.ca_key());
  Relation result =
      cascade
          .Run("SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN "
               "stock",
               env.ctx())
          .value();
  EXPECT_TRUE(result.EqualsAsBag(env.ExpectedThreeWay()));
}

// A per-level protocol schedule (the planner's mixed plans) must deliver
// the same bag as every single-protocol cascade: the intermediate result
// a level re-publishes is protocol-independent, so protocols compose.
TEST(CascadeTest, MixedProtocolScheduleMatchesUniformRuns) {
  const std::string sql =
      "SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN stock";

  CascadeEnv das_env;
  DasJoinProtocol das0(
      DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  CascadeExecutor uniform(&das0, das_env.ca_key());
  Relation das_result = uniform.Run(sql, das_env.ctx()).value();

  // DAS for the cheap first level, commutative for the second.
  CascadeEnv mixed_env;
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor mixed(&comm, mixed_env.ca_key());
  mixed.SetProtocolSchedule({&das, &comm});
  Relation mixed_result = mixed.Run(sql, mixed_env.ctx()).value();

  EXPECT_TRUE(mixed_result.EqualsAsBag(das_result));
  EXPECT_TRUE(mixed_result.EqualsAsBag(mixed_env.ExpectedThreeWay()));

  // The reverse order composes too.
  CascadeEnv rev_env;
  DasJoinProtocol das2(
      DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  CommutativeJoinProtocol comm2(CommutativeProtocolOptions{256, false});
  CascadeExecutor reversed(&comm2, rev_env.ca_key());
  reversed.SetProtocolSchedule({&comm2, &das2});
  Relation rev_result = reversed.Run(sql, rev_env.ctx()).value();
  EXPECT_TRUE(rev_result.EqualsAsBag(rev_env.ExpectedThreeWay()));
}

// A schedule shorter than the cascade falls back to the constructor
// protocol for the trailing levels, and an empty schedule is the exact
// legacy path (same transcript on the shared bus).
TEST(CascadeTest, PartialAndEmptySchedules) {
  const std::string sql =
      "SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN stock";

  CascadeEnv partial_env;
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor partial(&comm, partial_env.ca_key());
  partial.SetProtocolSchedule({&das});  // level 0 only; level 1 falls back
  Relation partial_result = partial.Run(sql, partial_env.ctx()).value();
  EXPECT_TRUE(partial_result.EqualsAsBag(partial_env.ExpectedThreeWay()));

  // Empty schedule == no schedule: byte-identical transcripts.
  CascadeEnv legacy_env;
  CommutativeJoinProtocol comm_a(CommutativeProtocolOptions{256, false});
  CascadeExecutor legacy(&comm_a, legacy_env.ca_key());
  Relation legacy_result = legacy.Run(sql, legacy_env.ctx()).value();

  CascadeEnv sched_env;
  CommutativeJoinProtocol comm_b(CommutativeProtocolOptions{256, false});
  CascadeExecutor scheduled(&comm_b, sched_env.ca_key());
  scheduled.SetProtocolSchedule({});
  Relation sched_result = scheduled.Run(sql, sched_env.ctx()).value();

  EXPECT_TRUE(legacy_result.EqualsAsBag(sched_result));
  ASSERT_EQ(legacy_env.bus().transcript().size(),
            sched_env.bus().transcript().size());
  for (size_t i = 0; i < legacy_env.bus().transcript().size(); ++i) {
    EXPECT_EQ(legacy_env.bus().transcript()[i].payload,
              sched_env.bus().transcript()[i].payload)
        << "transcript diverges at message " << i;
  }
}

// A planner-chosen join order must deliver the SAME relation as the
// written order — identical schema (names and column order, via the
// written-order layout restoration) and identical bag — so a reordered
// `--protocol auto` run stays digest-comparable to fixed-protocol runs.
TEST(CascadeTest, JoinOrderMatchesWrittenOrderResult) {
  const std::string sql =
      "SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN vitals";

  CascadeEnv written_env;
  CommutativeJoinProtocol comm_w(CommutativeProtocolOptions{256, false});
  CascadeExecutor written(&comm_w, written_env.ca_key());
  Relation written_result = written.Run(sql, written_env.ctx()).value();
  // pids 1 (flu: tamiflu + rest) and 2 (gout) have vitals; pid 3 has none.
  EXPECT_EQ(written_result.size(), 3u);

  CascadeEnv reordered_env;
  CommutativeJoinProtocol comm_r(CommutativeProtocolOptions{256, false});
  CascadeExecutor reordered(&comm_r, reordered_env.ca_key());
  reordered.SetJoinOrder({1, 0});  // vitals first, then treatments
  Relation reordered_result = reordered.Run(sql, reordered_env.ctx()).value();

  EXPECT_TRUE(reordered_result.schema() == written_result.schema())
      << reordered_result.schema().ToString() << " vs "
      << written_result.schema().ToString();
  EXPECT_TRUE(reordered_result.EqualsAsBag(written_result))
      << reordered_result.ToString() << " vs " << written_result.ToString();
}

TEST(CascadeTest, JoinOrderValidation) {
  const std::string sql =
      "SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN vitals";
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());

  cascade.SetJoinOrder({0});  // wrong arity
  EXPECT_FALSE(cascade.Run(sql, env.ctx()).ok());
  cascade.SetJoinOrder({0, 0});  // not a permutation
  EXPECT_FALSE(cascade.Run(sql, env.ctx()).ok());
  cascade.SetJoinOrder({2, 0});  // out of range
  EXPECT_FALSE(cascade.Run(sql, env.ctx()).ok());

  // The explicit identity order is the written order.
  cascade.SetJoinOrder({0, 1});
  EXPECT_TRUE(cascade.Run(sql, env.ctx()).ok());
}

// Reordering is only sound for all-NATURAL cascades (the planner never
// permutes ON joins); the executor fails closed rather than running a
// different cascade than the plan described.
TEST(CascadeTest, JoinOrderRejectedForOnJoins) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  cascade.SetJoinOrder({1, 0});
  EXPECT_FALSE(cascade
                   .Run("SELECT * FROM patients JOIN treatments ON "
                        "patients.diag = treatments.diag JOIN stock ON "
                        "treatments.drug = stock.drug",
                        env.ctx())
                   .ok());
}

// End to end through the planner, mirroring QueryService::Execute: build
// the chosen plan's protocol schedule AND join order, execute, and
// compare against the written-order uniform run. Whatever order the cost
// model prefers, the delivered relation must be identical.
TEST(CascadeTest, PlannerChoiceExecutesChosenOrder) {
  const std::string sql =
      "SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN vitals";

  CascadeEnv baseline_env;
  CommutativeJoinProtocol comm_base(CommutativeProtocolOptions{256, false});
  CascadeExecutor baseline(&comm_base, baseline_env.ca_key());
  Relation expected = baseline.Run(sql, baseline_env.ctx()).value();

  CascadeEnv env;
  plan::PlannerOptions popt;
  popt.params.das_partitions = 2;
  plan::Planner planner(plan::CostModel(plan::CalibrationProfile{}), popt);
  auto choice = planner.Plan(sql, env.ctx());
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  ASSERT_EQ(choice->chosen.join_order.size(), 2u);
  ASSERT_EQ(choice->chosen.levels.size(), 2u);
  // The schedule's level L mediates written clause join_order[L].
  const char* kTables[] = {"treatments", "vitals"};
  EXPECT_EQ(choice->chosen.levels[0].right,
            kTables[choice->chosen.join_order[0]]);
  EXPECT_EQ(choice->chosen.levels[1].right,
            kTables[choice->chosen.join_order[1]]);

  std::vector<std::unique_ptr<JoinProtocol>> owned;
  std::vector<JoinProtocol*> schedule;
  for (const std::string& name : choice->ProtocolSchedule()) {
    RunSpec spec;
    spec.protocol = name;
    spec.das_partitions = 2;
    auto built = BuildProtocol(spec);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    owned.push_back(std::move(built).value());
    schedule.push_back(owned.back().get());
  }
  CascadeExecutor cascade(schedule[0], env.ca_key());
  cascade.SetProtocolSchedule(schedule);
  cascade.SetJoinOrder(choice->chosen.join_order);
  auto result = cascade.Run(sql, env.ctx());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->schema() == expected.schema())
      << result->schema().ToString() << " vs " << expected.schema().ToString();
  EXPECT_TRUE(result->EqualsAsBag(expected));
}

TEST(CascadeTest, OnClauseJoins) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  Relation result =
      cascade
          .Run("SELECT * FROM patients JOIN treatments ON patients.diag = "
               "treatments.diag JOIN stock ON treatments.drug = stock.drug",
               env.ctx())
          .value();
  EXPECT_EQ(result.size(), env.ExpectedThreeWay().size());
}

TEST(CascadeTest, WhereAppliedClientSide) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  Relation result =
      cascade
          .Run("SELECT * FROM patients NATURAL JOIN treatments NATURAL JOIN "
               "stock WHERE units > 0",
               env.ctx())
          .value();
  for (const Tuple& t : result.tuples()) {
    size_t units = result.schema().IndexOf("units").value();
    EXPECT_GT(t[units].as_int(), 0);
  }
  EXPECT_EQ(result.size(), 2u);  // allopurinol (0 units) filtered; rest has no stock
}

TEST(CascadeTest, ProjectionAppliedClientSide) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  Relation result =
      cascade
          .Run("SELECT pid, drug FROM patients NATURAL JOIN treatments",
               env.ctx())
          .value();
  EXPECT_EQ(result.schema().size(), 2u);
  EXPECT_EQ(Schema::BaseName(result.schema().column(0).name), "pid");
}

TEST(CascadeTest, RejectsNoJoin) {
  CascadeEnv env;
  CommutativeJoinProtocol comm;
  CascadeExecutor cascade(&comm, env.ca_key());
  EXPECT_FALSE(cascade.Run("SELECT * FROM patients", env.ctx()).ok());
}

// The service runs a two-relation query as one protocol run, which
// returns the whole join, so an aggregate must fail loudly instead of
// coming back as the raw join rows. (A k-way query keeps its
// post-processing: the cascade applies it at the client, as above.)
TEST(CascadeTest, ServiceRejectsTwoRelationAggregate) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 12;
  cfg.r2_tuples = 10;
  cfg.r1_domain = 6;
  cfg.r2_domain = 5;
  cfg.common_values = 3;
  cfg.seed = 77;
  auto tb = MediationTestbed::Create(GenerateWorkload(cfg));
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  QueryService service(tb->get(), QueryService::Options());
  std::string sql = (*tb)->JoinSql();
  ASSERT_EQ(sql.rfind("SELECT * ", 0), 0u);
  sql.replace(0, 8, "SELECT COUNT(*)");
  for (const char* protocol : {"das", "commutative", "pm", "auto"}) {
    QueryService::Query q;
    q.protocol = protocol;
    q.sql = sql;
    q.group_bits = 256;
    Result<QueryOutcome> out = service.Run(q);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->status.code(), StatusCode::kUnimplemented)
        << protocol << ": " << out->status.ToString();
  }
}

TEST(CascadeTest, MediatorsInHierarchyNeverSeePlaintext) {
  CascadeEnv env;
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  CascadeExecutor cascade(&comm, env.ca_key());
  ASSERT_TRUE(cascade
                  .Run("SELECT * FROM patients NATURAL JOIN treatments "
                       "NATURAL JOIN stock",
                       env.ctx())
                  .ok());
  // Both hierarchy mediators routed only ciphertext: scan their views for
  // every diagnosis/drug string.
  for (const std::string med : {"mediator-L1", "mediator-L2"}) {
    Bytes view = env.bus().ViewOf(med);
    for (const char* probe : {"flu", "gout", "acne", "tamiflu",
                              "allopurinol", "aspirin"}) {
      Bytes needle = ToBytes(probe);
      auto it = std::search(view.begin(), view.end(), needle.begin(),
                            needle.end());
      EXPECT_EQ(it, view.end()) << med << " leaked " << probe;
    }
  }
}

}  // namespace
}  // namespace secmed
