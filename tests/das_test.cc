#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "crypto/drbg.h"
#include "das/das_relation.h"
#include "das/index_table.h"
#include "das/partition.h"
#include "das/query_translator.h"
#include "relational/algebra.h"
#include "relational/workload.h"

namespace secmed {
namespace {

std::vector<Value> IntDomain(std::initializer_list<int64_t> vs) {
  std::vector<Value> out;
  for (int64_t v : vs) out.push_back(Value::Int(v));
  return out;
}

TEST(PartitionTest, EquiWidthCoversDomain) {
  Bytes salt = {1, 2, 3};
  auto parts =
      PartitionDomain(IntDomain({0, 5, 9, 10, 19, 20, 29}),
                      PartitionStrategy::kEquiWidth, 3, salt)
          .value();
  ASSERT_EQ(parts.size(), 3u);
  for (int64_t v : {0, 5, 9, 10, 19, 20, 29}) {
    bool covered = false;
    for (const auto& p : parts) covered |= p.Contains(Value::Int(v));
    EXPECT_TRUE(covered) << v;
  }
  // Partitions are disjoint ranges.
  EXPECT_TRUE(parts[0].is_range);
  EXPECT_EQ(parts[0].lo, 0);
  EXPECT_LT(parts[0].hi, parts[1].lo);
}

TEST(PartitionTest, EquiWidthRejectsStrings) {
  std::vector<Value> dom = {Value::Str("a")};
  EXPECT_FALSE(
      PartitionDomain(dom, PartitionStrategy::kEquiWidth, 2, Bytes()).ok());
}

TEST(PartitionTest, EquiDepthBalancesDistinctValues) {
  Bytes salt = {7};
  auto parts = PartitionDomain(IntDomain({1, 2, 3, 4, 5, 6, 7, 8, 9}),
                               PartitionStrategy::kEquiDepth, 3, salt)
                   .value();
  ASSERT_EQ(parts.size(), 3u);
  for (const auto& p : parts) EXPECT_EQ(p.values.size(), 3u);
}

TEST(PartitionTest, EquiDepthWorksOnStrings) {
  std::vector<Value> dom = {Value::Str("a"), Value::Str("b"), Value::Str("c")};
  auto parts =
      PartitionDomain(dom, PartitionStrategy::kEquiDepth, 2, Bytes()).value();
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_TRUE(parts[0].Contains(Value::Str("a")));
  EXPECT_FALSE(parts[0].Contains(Value::Str("z")));
}

TEST(PartitionTest, EquiDepthMorePartitionsThanValues) {
  auto parts = PartitionDomain(IntDomain({1, 2}),
                               PartitionStrategy::kEquiDepth, 10, Bytes())
                   .value();
  EXPECT_EQ(parts.size(), 2u);
}

TEST(PartitionTest, SingletonOnePartitionPerValue) {
  auto parts = PartitionDomain(IntDomain({5, 1, 5, 3}),
                               PartitionStrategy::kSingleton, 0, Bytes())
                   .value();
  ASSERT_EQ(parts.size(), 3u);  // distinct values only
  for (const auto& p : parts) EXPECT_EQ(p.values.size(), 1u);
}

TEST(PartitionTest, EmptyDomainFails) {
  EXPECT_FALSE(
      PartitionDomain({}, PartitionStrategy::kSingleton, 1, Bytes()).ok());
}

TEST(PartitionTest, IdentifiersDependOnSalt) {
  auto a = PartitionDomain(IntDomain({1, 2, 3, 4}),
                           PartitionStrategy::kEquiWidth, 2, Bytes{1})
               .value();
  auto b = PartitionDomain(IntDomain({1, 2, 3, 4}),
                           PartitionStrategy::kEquiWidth, 2, Bytes{2})
               .value();
  EXPECT_NE(a[0].index, b[0].index);
}

TEST(PartitionTest, IdentifiersAreDistinct) {
  auto parts = PartitionDomain(IntDomain({1, 2, 3, 4, 5, 6, 7, 8}),
                               PartitionStrategy::kSingleton, 0, Bytes{9})
                   .value();
  std::set<uint64_t> ids;
  for (const auto& p : parts) ids.insert(p.index);
  EXPECT_EQ(ids.size(), parts.size());
}

TEST(PartitionTest, RangeOverlap) {
  DasPartition a{.index = 1, .is_range = true, .lo = 0, .hi = 10, .values = {}};
  DasPartition b{.index = 2, .is_range = true, .lo = 10, .hi = 20, .values = {}};
  DasPartition c{.index = 3, .is_range = true, .lo = 11, .hi = 20, .values = {}};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));
}

TEST(PartitionTest, RangeSetOverlap) {
  DasPartition range{.index = 1, .is_range = true, .lo = 0, .hi = 10, .values = {}};
  DasPartition in;
  in.values = {Value::Int(5)};
  DasPartition out;
  out.values = {Value::Int(50)};
  EXPECT_TRUE(range.Overlaps(in));
  EXPECT_TRUE(in.Overlaps(range));
  EXPECT_FALSE(range.Overlaps(out));
}

TEST(PartitionTest, SetSetOverlap) {
  DasPartition a, b, c;
  a.values = IntDomain({1, 3, 5});
  b.values = IntDomain({2, 3, 4});
  c.values = IntDomain({6, 7});
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(c));
}

Relation SampleRelation() {
  Relation r{Schema({{"ajoin", ValueType::kInt64},
                     {"payload", ValueType::kString}})};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(
        r.Append({Value::Int(i % 10), Value::Str("row" + std::to_string(i))})
            .ok());
  }
  return r;
}

TEST(IndexTableTest, BuildAndLookup) {
  IndexTable it = IndexTable::Build(SampleRelation(), "ajoin",
                                    PartitionStrategy::kEquiWidth, 4, Bytes{1})
                      .value();
  EXPECT_EQ(it.attribute(), "ajoin");
  EXPECT_GE(it.size(), 1u);
  EXPECT_TRUE(it.IndexOf(Value::Int(3)).ok());
  EXPECT_FALSE(it.IndexOf(Value::Int(1000)).ok());
}

TEST(IndexTableTest, SerializeRoundTrip) {
  IndexTable it = IndexTable::Build(SampleRelation(), "ajoin",
                                    PartitionStrategy::kEquiDepth, 3, Bytes{2})
                      .value();
  IndexTable back = IndexTable::Deserialize(it.Serialize()).value();
  EXPECT_EQ(back.attribute(), it.attribute());
  EXPECT_EQ(back.size(), it.size());
  for (int v = 0; v < 10; ++v) {
    EXPECT_EQ(back.IndexOf(Value::Int(v)).value(),
              it.IndexOf(Value::Int(v)).value());
  }
}

TEST(IndexTableTest, OverlappingPairsFindsSharedValues) {
  Relation r1{Schema({{"ajoin", ValueType::kInt64}})};
  Relation r2{Schema({{"ajoin", ValueType::kInt64}})};
  for (int v : {1, 2, 3}) ASSERT_TRUE(r1.Append({Value::Int(v)}).ok());
  for (int v : {3, 4, 5}) ASSERT_TRUE(r2.Append({Value::Int(v)}).ok());
  IndexTable it1 = IndexTable::Build(r1, "ajoin",
                                     PartitionStrategy::kSingleton, 0, Bytes{1})
                       .value();
  IndexTable it2 = IndexTable::Build(r2, "ajoin",
                                     PartitionStrategy::kSingleton, 0, Bytes{2})
                       .value();
  auto pairs = it1.OverlappingPairs(it2);
  // Only the value 3 is shared, and singleton partitions are exact.
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, it1.IndexOf(Value::Int(3)).value());
  EXPECT_EQ(pairs[0].second, it2.IndexOf(Value::Int(3)).value());
}

// The etuple key a source draws per delivery (one per side).
Bytes EtupleKey(uint8_t side = 1) { return Bytes(32, side); }

TEST(DasRelationTest, EncryptDecryptRoundTrip) {
  HmacDrbg rng(ToBytes("das1"));
  Relation rel = SampleRelation();
  IndexTable it = IndexTable::Build(rel, "ajoin",
                                    PartitionStrategy::kEquiWidth, 4, Bytes{3})
                      .value();
  DasRelation enc =
      DasEncryptRelation(rel, "ajoin", it, EtupleKey(), &rng)
          .value();
  EXPECT_EQ(enc.size(), rel.size());
  Relation dec = DasDecryptRelation(enc, rel.schema(), EtupleKey()).value();
  EXPECT_TRUE(dec.EqualsAsBag(rel));
  // Only the delivery's key opens its etuples.
  EXPECT_EQ(
      DasDecryptRelation(enc, rel.schema(), EtupleKey(2)).status().code(),
      StatusCode::kCryptoError);
}

TEST(DasRelationTest, EtuplesHideEqualTuples) {
  // Every etuple has its own IV: identical plaintext tuples produce
  // different etuples, so the mediator cannot even count duplicates.
  HmacDrbg rng(ToBytes("das2"));
  Relation rel{Schema({{"ajoin", ValueType::kInt64}})};
  ASSERT_TRUE(rel.Append({Value::Int(1)}).ok());
  ASSERT_TRUE(rel.Append({Value::Int(1)}).ok());
  IndexTable it = IndexTable::Build(rel, "ajoin",
                                    PartitionStrategy::kSingleton, 0, Bytes{4})
                      .value();
  DasRelation enc =
      DasEncryptRelation(rel, "ajoin", it, EtupleKey(), &rng)
          .value();
  EXPECT_NE(enc.tuples[0].etuple, enc.tuples[1].etuple);
  EXPECT_EQ(enc.tuples[0].join_indexes, enc.tuples[1].join_indexes);
}

TEST(DasRelationTest, SerializeRoundTrip) {
  HmacDrbg rng(ToBytes("das3"));
  Relation rel = SampleRelation();
  IndexTable it = IndexTable::Build(rel, "ajoin",
                                    PartitionStrategy::kEquiDepth, 3, Bytes{5})
                      .value();
  DasRelation enc =
      DasEncryptRelation(rel, "ajoin", it, EtupleKey(), &rng)
          .value();
  DasRelation back = DasRelation::Deserialize(enc.Serialize()).value();
  ASSERT_EQ(back.size(), enc.size());
  EXPECT_EQ(back.tuples[0].etuple, enc.tuples[0].etuple);
  EXPECT_EQ(back.tuples[0].join_indexes, enc.tuples[0].join_indexes);
}

struct DasEndToEndParam {
  PartitionStrategy strategy;
  size_t partitions;
};

class DasEndToEndTest : public ::testing::TestWithParam<DasEndToEndParam> {};

TEST_P(DasEndToEndTest, ServerPlusClientQueryEqualsPlaintextJoin) {
  HmacDrbg rng(ToBytes("das-e2e"));
  WorkloadConfig cfg;
  cfg.r1_tuples = 40;
  cfg.r2_tuples = 30;
  cfg.r1_domain = 15;
  cfg.r2_domain = 12;
  cfg.common_values = 6;
  cfg.seed = 99;
  Workload w = GenerateWorkload(cfg);

  IndexTable it1 =
      IndexTable::Build(w.r1, w.join_attribute, GetParam().strategy,
                        GetParam().partitions, Bytes{10})
          .value();
  IndexTable it2 =
      IndexTable::Build(w.r2, w.join_attribute, GetParam().strategy,
                        GetParam().partitions, Bytes{11})
          .value();
  DasRelation r1s = DasEncryptRelation(w.r1, w.join_attribute, it1,
                                       EtupleKey(), &rng)
                        .value();
  DasRelation r2s = DasEncryptRelation(w.r2, w.join_attribute, it2,
                                       EtupleKey(2), &rng)
                        .value();

  DasServerQuery qs = TranslateToServerQuery(it1, it2);
  DasServerResult rc = EvaluateServerQuery(r1s, r2s, qs);

  Relation joined = ApplyClientQuery(rc, w.r1.schema(), w.r2.schema(),
                                     {w.join_attribute}, EtupleKey(),
                                     EtupleKey(2))
                        .value();
  Relation expected = NaturalJoin(w.r1, w.r2).value();
  EXPECT_TRUE(joined.EqualsAsBag(expected));

  // The server result is a superset of the true join (Table 1 row 1).
  EXPECT_GE(rc.size(), expected.size());
  // Singleton partitioning makes the server result exact.
  if (GetParam().strategy == PartitionStrategy::kSingleton) {
    EXPECT_EQ(rc.size(), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DasEndToEndTest,
    ::testing::Values(DasEndToEndParam{PartitionStrategy::kEquiWidth, 4},
                      DasEndToEndParam{PartitionStrategy::kEquiWidth, 1},
                      DasEndToEndParam{PartitionStrategy::kEquiDepth, 5},
                      DasEndToEndParam{PartitionStrategy::kEquiDepth, 2},
                      DasEndToEndParam{PartitionStrategy::kSingleton, 0}),
    // Named from the fields: the printed parameter is a byte dump that
    // includes the struct's uninitialized padding.
    [](const ::testing::TestParamInfo<DasEndToEndParam>& info) {
      std::string name = PartitionStrategyToString(info.param.strategy);
      name += '_';
      name += std::to_string(info.param.partitions);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DasServerQueryTest, SerializeRoundTrip) {
  DasServerQuery q{{{{1, 2}, {3, 4}, {5, 6}}, {{7, 8}}}};
  DasServerQuery back = DasServerQuery::Deserialize(q.Serialize()).value();
  EXPECT_EQ(back.per_attribute_pairs, q.per_attribute_pairs);
}

TEST(DasServerResultTest, SerializeRoundTrip) {
  DasServerResult r{{Bytes{1, 2}, Bytes{}}, {Bytes{3}}, {{0, 0}, {1, 0}}};
  DasServerResult back = DasServerResult::Deserialize(r.Serialize()).value();
  EXPECT_EQ(back.etuples1, r.etuples1);
  EXPECT_EQ(back.etuples2, r.etuples2);
  EXPECT_EQ(back.pairs, r.pairs);
}

TEST(DasServerQueryTest, CoarserPartitioningYieldsBiggerSuperset) {
  // Section 6 discussion: fewer partitions -> larger server result ->
  // more client post-processing but less leakage.
  HmacDrbg rng(ToBytes("das-coarse"));
  WorkloadConfig cfg;
  cfg.r1_tuples = 60;
  cfg.r2_tuples = 60;
  cfg.r1_domain = 30;
  cfg.r2_domain = 30;
  cfg.common_values = 10;
  Workload w = GenerateWorkload(cfg);

  size_t prev_size = 0;
  std::vector<size_t> counts;
  for (size_t parts : {1u, 4u, 16u}) {
    IndexTable it1 = IndexTable::Build(w.r1, w.join_attribute,
                                       PartitionStrategy::kEquiDepth, parts,
                                       Bytes{20})
                         .value();
    IndexTable it2 = IndexTable::Build(w.r2, w.join_attribute,
                                       PartitionStrategy::kEquiDepth, parts,
                                       Bytes{21})
                         .value();
    DasRelation r1s = DasEncryptRelation(w.r1, w.join_attribute, it1,
                                         EtupleKey(), &rng)
                          .value();
    DasRelation r2s = DasEncryptRelation(w.r2, w.join_attribute, it2,
                                         EtupleKey(), &rng)
                          .value();
    DasServerResult rc =
        EvaluateServerQuery(r1s, r2s, TranslateToServerQuery(it1, it2));
    counts.push_back(rc.size());
  }
  EXPECT_GE(counts[0], counts[1]);
  EXPECT_GE(counts[1], counts[2]);
  (void)prev_size;
}

}  // namespace
}  // namespace secmed
