// Property sweep: every protocol must equal the plaintext-join oracle on
// a grid of workload shapes — unbalanced sizes, skewed frequencies,
// string join values, single-tuple relations, duplicate-heavy domains.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "core/testbed.h"

namespace secmed {
namespace {

struct SweepCase {
  const char* protocol;
  const char* shape;
  uint64_t seed;
};

// Printable parameter name for gtest.
std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::ostringstream os;
  os << info.param.protocol << "_" << info.param.shape << "_"
     << info.param.seed;
  std::string s = os.str();
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

WorkloadConfig ShapeConfig(const std::string& shape, uint64_t seed) {
  WorkloadConfig cfg;
  cfg.seed = seed;
  if (shape == "unbalanced") {
    cfg.r1_tuples = 60;
    cfg.r2_tuples = 6;
    cfg.r1_domain = 25;
    cfg.r2_domain = 4;
    cfg.common_values = 3;
  } else if (shape == "skewed") {
    cfg.r1_tuples = 50;
    cfg.r2_tuples = 50;
    cfg.r1_domain = 12;
    cfg.r2_domain = 12;
    cfg.common_values = 6;
    cfg.skew = 1.3;
  } else if (shape == "strings") {
    cfg.r1_tuples = 30;
    cfg.r2_tuples = 30;
    cfg.r1_domain = 10;
    cfg.r2_domain = 10;
    cfg.common_values = 5;
    cfg.string_join_values = true;
  } else if (shape == "tiny") {
    cfg.r1_tuples = 1;
    cfg.r2_tuples = 1;
    cfg.r1_domain = 1;
    cfg.r2_domain = 1;
    cfg.common_values = 1;
  } else if (shape == "dense") {
    cfg.r1_tuples = 60;
    cfg.r2_tuples = 60;
    cfg.r1_domain = 3;
    cfg.r2_domain = 3;
    cfg.common_values = 3;
  }
  return cfg;
}

std::unique_ptr<JoinProtocol> MakeProtocol(const std::string& which) {
  if (which == "das") {
    return std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kEquiDepth, 3});
  }
  if (which == "das-singleton") {
    return std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kSingleton, 0});
  }
  if (which == "commutative") {
    return std::make_unique<CommutativeJoinProtocol>(
        CommutativeProtocolOptions{256, false});
  }
  return std::make_unique<PmJoinProtocol>();
}

class ProtocolSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ProtocolSweep, MatchesOracle) {
  const SweepCase& param = GetParam();
  Workload w = GenerateWorkload(ShapeConfig(param.shape, param.seed));
  MediationTestbed::Options opt;
  opt.seed_label = CaseName({param, 0});
  auto tb_or = MediationTestbed::Create(w, opt);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  auto protocol = MakeProtocol(param.protocol);
  Relation result = protocol->Run(tb.JoinSql(), tb.ctx()).value();
  EXPECT_TRUE(result.EqualsAsBag(tb.ExpectedJoin()))
      << param.protocol << "/" << param.shape << "/" << param.seed << ": got "
      << result.size() << " rows, expected " << tb.ExpectedJoin().size();
}

std::vector<SweepCase> BuildCases() {
  std::vector<SweepCase> cases;
  const char* shapes[] = {"unbalanced", "skewed", "strings", "tiny", "dense"};
  // Fast protocols: every shape, several seeds.
  for (const char* protocol : {"das", "das-singleton", "commutative"}) {
    for (const char* shape : shapes) {
      for (uint64_t seed : {201u, 202u, 203u}) {
        cases.push_back({protocol, shape, seed});
      }
    }
  }
  // PM is expensive: one seed per shape.
  for (const char* shape : shapes) cases.push_back({"pm", shape, 204});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProtocolSweep,
                         ::testing::ValuesIn(BuildCases()), CaseName);

}  // namespace
}  // namespace secmed
