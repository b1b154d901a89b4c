// Tests of searchable encryption and the mediated selection protocol
// (Yang et al., Related Work Section 7).

#include "core/selection_protocol.h"

#include <gtest/gtest.h>

#include "core/leakage.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "das/searchable.h"
#include "relational/algebra.h"

namespace secmed {
namespace {

Relation Cases() {
  Relation r{Schema({{"id", ValueType::kInt64},
                     {"diag", ValueType::kString},
                     {"region", ValueType::kString}})};
  EXPECT_TRUE(r.Append({Value::Int(1), Value::Str("flu"), Value::Str("n")}).ok());
  EXPECT_TRUE(r.Append({Value::Int(2), Value::Str("gout"), Value::Str("n")}).ok());
  EXPECT_TRUE(r.Append({Value::Int(3), Value::Str("flu"), Value::Str("s")}).ok());
  EXPECT_TRUE(r.Append({Value::Int(4), Value::Null(), Value::Str("s")}).ok());
  return r;
}

TEST(SearchableTest, TagsAreDeterministicPerKey) {
  HmacDrbg rng(ToBytes("tags"));
  Bytes k1 = rng.Generate(32), k2 = rng.Generate(32);
  EXPECT_EQ(SearchTag(k1, Value::Str("flu")), SearchTag(k1, Value::Str("flu")));
  EXPECT_NE(SearchTag(k1, Value::Str("flu")), SearchTag(k1, Value::Str("gout")));
  EXPECT_NE(SearchTag(k1, Value::Str("flu")), SearchTag(k2, Value::Str("flu")));
  // Type-aware: Int(1) and Str("1") differ.
  EXPECT_NE(SearchTag(k1, Value::Int(1)), SearchTag(k1, Value::Str("1")));
}

TEST(SearchableTest, EncryptSelectOpenRoundTrip) {
  HmacDrbg rng(ToBytes("sel1"));
  Relation rel = Cases();
  SearchKeys keys = GenerateSearchKeys(rel.schema(), &rng);
  SearchableRelation enc =
      SearchableEncrypt(rel, keys, &rng).value();
  EXPECT_EQ(enc.size(), rel.size());

  SelectionToken token =
      MakeSelectionToken(keys, rel.schema(), {{"diag", Value::Str("flu")}})
          .value();
  std::vector<Bytes> rows = EvaluateSelection(enc, token).value();
  EXPECT_EQ(rows.size(), 2u);
  Relation opened = OpenSelection(rows, rel.schema(), keys).value();
  for (const Tuple& t : opened.tuples()) EXPECT_EQ(t[1], Value::Str("flu"));
}

TEST(SearchableTest, ConjunctiveToken) {
  HmacDrbg rng(ToBytes("sel2"));
  Relation rel = Cases();
  SearchKeys keys = GenerateSearchKeys(rel.schema(), &rng);
  SearchableRelation enc =
      SearchableEncrypt(rel, keys, &rng).value();
  SelectionToken token =
      MakeSelectionToken(keys, rel.schema(),
                         {{"diag", Value::Str("flu")},
                          {"region", Value::Str("s")}})
          .value();
  std::vector<Bytes> rows = EvaluateSelection(enc, token).value();
  ASSERT_EQ(rows.size(), 1u);
  Relation opened = OpenSelection(rows, rel.schema(), keys).value();
  EXPECT_EQ(opened.at(0, 0), Value::Int(3));
}

TEST(SearchableTest, NullCellsNeverMatch) {
  HmacDrbg rng(ToBytes("sel3"));
  Relation rel = Cases();
  SearchKeys keys = GenerateSearchKeys(rel.schema(), &rng);
  SearchableRelation enc =
      SearchableEncrypt(rel, keys, &rng).value();
  // No token can be built for NULL; and the NULL cell's empty tag matches
  // nothing, including an empty probe.
  EXPECT_FALSE(
      MakeSelectionToken(keys, rel.schema(), {{"diag", Value::Null()}}).ok());
  SelectionToken empty_probe;
  empty_probe.conditions.emplace_back("diag", Bytes());
  std::vector<Bytes> rows = EvaluateSelection(enc, empty_probe).value();
  EXPECT_TRUE(rows.empty());
}

TEST(SearchableTest, SerializeRoundTrips) {
  HmacDrbg rng(ToBytes("sel4"));
  Relation rel = Cases();
  SearchKeys keys = GenerateSearchKeys(rel.schema(), &rng);
  SearchableRelation enc =
      SearchableEncrypt(rel, keys, &rng).value();
  SearchableRelation enc2 =
      SearchableRelation::Deserialize(enc.Serialize()).value();
  EXPECT_EQ(enc2.size(), enc.size());
  SearchKeys keys2 = SearchKeys::Deserialize(keys.Serialize()).value();
  EXPECT_EQ(keys2.column_keys, keys.column_keys);
  EXPECT_EQ(keys2.row_key, keys.row_key);
  SelectionToken token =
      MakeSelectionToken(keys2, rel.schema(), {{"region", Value::Str("n")}})
          .value();
  SelectionToken token2 = SelectionToken::Deserialize(token.Serialize()).value();
  EXPECT_EQ(EvaluateSelection(enc2, token2).value().size(), 2u);
}

TEST(SearchableTest, WrongKeysFindNothing) {
  HmacDrbg rng(ToBytes("sel5"));
  Relation rel = Cases();
  SearchKeys keys = GenerateSearchKeys(rel.schema(), &rng);
  SearchKeys other = GenerateSearchKeys(rel.schema(), &rng);
  SearchableRelation enc =
      SearchableEncrypt(rel, keys, &rng).value();
  SelectionToken token =
      MakeSelectionToken(other, rel.schema(), {{"diag", Value::Str("flu")}})
          .value();
  EXPECT_TRUE(EvaluateSelection(enc, token).value().empty());
}

// ---------------------------------------------------------------------------
// End-to-end mediated selection protocol.
// ---------------------------------------------------------------------------

TEST(SelectionProtocolTest, ExactRowsReturned) {
  Workload w = GenerateWorkload(WorkloadConfig{});
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  // Inject a recognizable relation at source1.
  tb.source1().AddRelation("cases", Cases());
  tb.mediator().RegisterTable("cases", tb.source1().name(), Cases().schema());

  SelectionProtocol protocol;
  Relation result =
      protocol.Run("SELECT * FROM cases WHERE diag = 'flu'", tb.ctx()).value();
  Relation expected =
      Select(Qualify(Cases(), "cases"),
             Predicate::ColumnEquals("diag", Value::Str("flu")))
          .value();
  EXPECT_TRUE(result.EqualsAsBag(expected));
  // Exactness: mediator returned exactly the matching rows (Yang et al.).
  EXPECT_EQ(protocol.last_selected_rows(), result.size());
}

TEST(SelectionProtocolTest, ConjunctionAndIntLiterals) {
  Workload w = GenerateWorkload(WorkloadConfig{});
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  tb.source1().AddRelation("cases", Cases());
  tb.mediator().RegisterTable("cases", tb.source1().name(), Cases().schema());

  SelectionProtocol protocol;
  Relation result =
      protocol
          .Run("SELECT * FROM cases WHERE region = 's' AND diag = 'flu'",
               tb.ctx())
          .value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.at(0, 0), Value::Int(3));

  Relation by_id =
      protocol.Run("SELECT * FROM cases WHERE id = 2", tb.ctx()).value();
  ASSERT_EQ(by_id.size(), 1u);
  EXPECT_EQ(by_id.at(0, 1), Value::Str("gout"));
}

TEST(SelectionProtocolTest, MediatorSeesNoPlaintext) {
  Workload w = GenerateWorkload(WorkloadConfig{});
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  tb.source1().AddRelation("cases", Cases());
  tb.mediator().RegisterTable("cases", tb.source1().name(), Cases().schema());

  SelectionProtocol protocol;
  ASSERT_TRUE(
      protocol.Run("SELECT * FROM cases WHERE diag = 'gout'", tb.ctx()).ok());
  Bytes view = tb.bus().ViewOf(tb.mediator().name());
  for (const char* probe : {"flu", "gout"}) {
    Bytes needle = ToBytes(probe);
    auto it =
        std::search(view.begin(), view.end(), needle.begin(), needle.end());
    EXPECT_EQ(it, view.end()) << "mediator saw " << probe;
  }
}

TEST(SelectionProtocolTest, PolicyFiltersBeforeSelection) {
  Workload w = GenerateWorkload(WorkloadConfig{});
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  tb.source1().AddRelation("cases", Cases());
  tb.mediator().RegisterTable("cases", tb.source1().name(), Cases().schema());
  AccessPolicy policy;
  policy.AddRule({"role", "analyst",
                  Predicate::ColumnEquals("region", Value::Str("n")), {}});
  tb.source1().SetPolicy("cases", policy);

  SelectionProtocol protocol;
  Relation result =
      protocol.Run("SELECT * FROM cases WHERE diag = 'flu'", tb.ctx()).value();
  // Only the northern flu case is released at all.
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.at(0, 0), Value::Int(1));
}

TEST(SelectionProtocolTest, RejectsUnsupportedQueries) {
  Workload w = GenerateWorkload(WorkloadConfig{});
  auto tb_or = MediationTestbed::Create(w);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  tb.source1().AddRelation("cases", Cases());
  tb.mediator().RegisterTable("cases", tb.source1().name(), Cases().schema());

  SelectionProtocol protocol;
  // Missing WHERE.
  EXPECT_FALSE(protocol.Run("SELECT * FROM cases", tb.ctx()).ok());
  // Range condition.
  EXPECT_FALSE(
      protocol.Run("SELECT * FROM cases WHERE id > 1", tb.ctx()).ok());
  // Disjunction.
  EXPECT_FALSE(protocol
                   .Run("SELECT * FROM cases WHERE id = 1 OR id = 2",
                        tb.ctx())
                   .ok());
  // Join.
  EXPECT_FALSE(protocol
                   .Run("SELECT * FROM medical NATURAL JOIN billing "
                        "WHERE ajoin = 1",
                        tb.ctx())
                   .ok());
}

}  // namespace
}  // namespace secmed
