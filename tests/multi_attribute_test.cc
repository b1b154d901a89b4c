// Tests of the multi-attribute join extension (paper Section 8, future
// work: "whether our three protocols can be easily adapted to work with
// more than just one join attribute").

#include <gtest/gtest.h>

#include <memory>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/leakage.h"
#include "core/pm_protocol.h"
#include "core/testbed.h"
#include "relational/algebra.h"

namespace secmed {
namespace {

Workload TwoAttributeWorkload(uint64_t seed) {
  WorkloadConfig cfg;
  cfg.r1_tuples = 30;
  cfg.r2_tuples = 24;
  cfg.r1_domain = 8;
  cfg.r2_domain = 8;
  cfg.common_values = 6;
  cfg.secondary_join_domain = 3;
  cfg.r1_extra_columns = 1;
  cfg.r2_extra_columns = 1;
  cfg.seed = seed;
  return GenerateWorkload(cfg);
}

TEST(MultiAttributeWorkload, HasBothJoinColumns) {
  Workload w = TwoAttributeWorkload(1);
  ASSERT_EQ(w.join_attributes.size(), 2u);
  EXPECT_EQ(w.join_attributes[0], "ajoin");
  EXPECT_EQ(w.join_attributes[1], "bjoin");
  EXPECT_TRUE(w.r1.schema().HasColumn("bjoin"));
  EXPECT_TRUE(w.r2.schema().HasColumn("bjoin"));
}

TEST(EquiJoinMultiTest, MatchesManualFilter) {
  Workload w = TwoAttributeWorkload(2);
  Relation a = Qualify(w.r1, "m");
  Relation b = Qualify(w.r2, "b");
  Relation joined =
      EquiJoinMulti(a, {"m.ajoin", "m.bjoin"}, b, {"b.ajoin", "b.bjoin"})
          .value();
  // Manual nested loop.
  size_t count = 0;
  for (const Tuple& t1 : w.r1.tuples()) {
    for (const Tuple& t2 : w.r2.tuples()) {
      if (t1[0] == t2[0] && t1[1] == t2[1]) ++count;
    }
  }
  EXPECT_EQ(joined.size(), count);
  EXPECT_GT(count, 0u);
}

TEST(EquiJoinMultiTest, RejectsMismatchedLists) {
  Workload w = TwoAttributeWorkload(3);
  EXPECT_FALSE(EquiJoinMulti(w.r1, {"ajoin"}, w.r2, {}).ok());
  EXPECT_FALSE(
      EquiJoinMulti(w.r1, {"ajoin", "bjoin"}, w.r2, {"ajoin"}).ok());
}

TEST(MediatorMultiTest, PlansTwoJoinAttributes) {
  Workload w = TwoAttributeWorkload(4);
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  JoinQueryPlan plan =
      tb.mediator().PlanJoinQuery(tb.MultiJoinSql()).value();
  ASSERT_EQ(plan.join_attributes.size(), 2u);
  EXPECT_EQ(plan.join_attributes[0], "ajoin");
  EXPECT_EQ(plan.join_attributes[1], "bjoin");
  EXPECT_EQ(plan.join_attribute, "ajoin");
}

TEST(MediatorMultiTest, NaturalJoinPicksAllCommonColumns) {
  Workload w = TwoAttributeWorkload(5);
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  JoinQueryPlan plan =
      tb.mediator()
          .PlanJoinQuery("SELECT * FROM medical NATURAL JOIN billing")
          .value();
  EXPECT_EQ(plan.join_attributes.size(), 2u);
}

class MultiAttributeProtocol : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<JoinProtocol> Make() const {
    const std::string& which = GetParam();
    if (which == "das") {
      return std::make_unique<DasJoinProtocol>(
          DasProtocolOptions{PartitionStrategy::kEquiDepth, 3});
    }
    if (which == "das-width") {
      return std::make_unique<DasJoinProtocol>(
          DasProtocolOptions{PartitionStrategy::kEquiWidth, 2});
    }
    if (which == "commutative") {
      return std::make_unique<CommutativeJoinProtocol>(
          CommutativeProtocolOptions{256, false});
    }
    return std::make_unique<PmJoinProtocol>();
  }
};

TEST_P(MultiAttributeProtocol, MatchesPlaintextJoin) {
  Workload w = TwoAttributeWorkload(6);
  MediationTestbed::Options opt;
  opt.seed_label = "multi-" + GetParam();
  auto tb_or = MediationTestbed::Create(w, opt);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  auto protocol = Make();
  Relation result = protocol->Run(tb.MultiJoinSql(), tb.ctx()).value();
  // Oracle: natural join joins on both common columns.
  EXPECT_TRUE(result.EqualsAsBag(tb.ExpectedJoin()))
      << GetParam() << ": got " << result.size() << ", expected "
      << tb.ExpectedJoin().size();
}

TEST_P(MultiAttributeProtocol, MediatorNeverSeesPlaintext) {
  Workload w = TwoAttributeWorkload(7);
  MediationTestbed::Options opt;
  opt.seed_label = "multi-leak-" + GetParam();
  auto tb_or = MediationTestbed::Create(w, opt);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  auto protocol = Make();
  ASSERT_TRUE(protocol->Run(tb.MultiJoinSql(), tb.ctx()).ok());
  LeakageReport rep = AnalyzeLeakage(
      GetParam(), tb.bus(), tb.mediator().name(), tb.client().name(), w.r1,
      w.r2, w.join_attribute, 0);
  EXPECT_FALSE(rep.mediator_saw_plaintext);
}

TEST_P(MultiAttributeProtocol, StricterThanSingleAttribute) {
  // Joining on (ajoin, bjoin) must yield a subset of joining on ajoin only.
  Workload w = TwoAttributeWorkload(8);
  MediationTestbed::Options opt1;
  opt1.seed_label = "multi-sub1-" + GetParam();
  auto tb1_or = MediationTestbed::Create(w, opt1);
  ASSERT_TRUE(tb1_or.ok()) << tb1_or.status().ToString();
  MediationTestbed& tb1 = **tb1_or;
  auto protocol = Make();
  Relation multi = protocol->Run(tb1.MultiJoinSql(), tb1.ctx()).value();

  MediationTestbed::Options opt2;
  opt2.seed_label = "multi-sub2-" + GetParam();
  auto tb2_or = MediationTestbed::Create(w, opt2);
  ASSERT_TRUE(tb2_or.ok()) << tb2_or.status().ToString();
  MediationTestbed& tb2 = **tb2_or;
  auto protocol2 = Make();
  Relation single = protocol2->Run(tb2.JoinSql(), tb2.ctx()).value();

  EXPECT_LT(multi.size(), single.size());
  EXPECT_GT(multi.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MultiAttributeProtocol,
                         ::testing::Values("das", "das-width", "commutative",
                                           "pm"));

}  // namespace
}  // namespace secmed
