#include "core/range_protocol.h"

#include <limits>
#include <set>

#include "crypto/aead.h"
#include "crypto/hybrid.h"
#include "das/das_relation.h"
#include "das/index_table.h"
#include "relational/algebra.h"
#include "relational/sql.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgRangeQuery[] = "range_query";
constexpr char kMsgRangePartial[] = "range_partial_query";
constexpr char kMsgRangeEncrypted[] = "range_encrypted_relation";
constexpr char kMsgRangeItables[] = "range_index_tables";
constexpr char kMsgRangeBuckets[] = "range_bucket_query";
constexpr char kMsgRangeResult[] = "range_result";

// The client-side interval extracted from the WHERE clause.
struct RangeCondition {
  std::string column;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
};

// Folds a conjunction of comparisons on one integer column into an
// interval [lo, hi].
Status ExtractRange(const PredicatePtr& pred, RangeCondition* range) {
  switch (pred->kind()) {
    case Predicate::Kind::kAnd:
      SECMED_RETURN_IF_ERROR(ExtractRange(pred->left(), range));
      return ExtractRange(pred->right(), range);
    case Predicate::Kind::kCompare: {
      const Predicate::Operand* col_op = nullptr;
      const Predicate::Operand* lit_op = nullptr;
      CompareOp op = pred->op();
      if (pred->lhs().is_column && !pred->rhs().is_column) {
        col_op = &pred->lhs();
        lit_op = &pred->rhs();
      } else if (!pred->lhs().is_column && pred->rhs().is_column) {
        col_op = &pred->rhs();
        lit_op = &pred->lhs();
        // Mirror the operator: lit < col means col > lit.
        switch (op) {
          case CompareOp::kLt: op = CompareOp::kGt; break;
          case CompareOp::kLe: op = CompareOp::kGe; break;
          case CompareOp::kGt: op = CompareOp::kLt; break;
          case CompareOp::kGe: op = CompareOp::kLe; break;
          default: break;
        }
      } else {
        return Status::Unimplemented(
            "range conditions compare a column with a literal");
      }
      if (lit_op->literal.type() != ValueType::kInt64) {
        return Status::Unimplemented("range queries need integer literals");
      }
      if (!range->column.empty() && range->column != col_op->column) {
        return Status::Unimplemented(
            "range queries filter a single column; got " + range->column +
            " and " + col_op->column);
      }
      range->column = col_op->column;
      const int64_t v = lit_op->literal.as_int();
      switch (op) {
        case CompareOp::kEq:
          range->lo = std::max(range->lo, v);
          range->hi = std::min(range->hi, v);
          break;
        case CompareOp::kLt:
          range->hi = std::min(range->hi, v - 1);
          break;
        case CompareOp::kLe:
          range->hi = std::min(range->hi, v);
          break;
        case CompareOp::kGt:
          range->lo = std::max(range->lo, v + 1);
          break;
        case CompareOp::kGe:
          range->lo = std::max(range->lo, v);
          break;
        case CompareOp::kNe:
          return Status::Unimplemented("<> is not a range condition");
      }
      return Status::OK();
    }
    default:
      return Status::Unimplemented(
          "range queries support conjunctions of comparisons only");
  }
}
}  // namespace

Result<Relation> RangeSelectionProtocol::Run(const std::string& sql,
                                             ProtocolContext* ctx) {
  if (ctx == nullptr || ctx->client == nullptr || ctx->mediator == nullptr ||
      ctx->bus == nullptr || ctx->rng == nullptr) {
    return Status::InvalidArgument("incomplete protocol context");
  }
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  // Client-side planning: the range constants never leave the client.
  RangeCondition range;
  PredicatePtr exact_filter;
  std::string redacted_sql;
  {
    SECMED_ASSIGN_OR_RETURN(ParsedQuery query, ParseSql(sql));
    if (!query.joins.empty()) {
      return Status::Unimplemented("range protocol handles single tables");
    }
    if (!query.select_columns.empty() || query.HasAggregates()) {
      return Status::Unimplemented("range protocol supports SELECT *");
    }
    if (!query.where || query.where->kind() == Predicate::Kind::kTrue) {
      return Status::InvalidArgument("range protocol needs a WHERE clause");
    }
    SECMED_RETURN_IF_ERROR(ExtractRange(query.where, &range));
    exact_filter = query.where;
    redacted_sql = "SELECT * FROM " + query.from.name;
  }

  // Request phase.
  {
    BinaryWriter w;
    w.WriteString(redacted_sql);
    w.WriteU32(static_cast<uint32_t>(ctx->client->credentials().size()));
    for (const Credential& c : ctx->client->credentials()) {
      w.WriteBytes(c.Serialize());
    }
    bus.Send(client, mediator, kMsgRangeQuery, w.TakeBuffer());
  }
  Mediator::SelectionQueryPlan plan;
  {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgRangeQuery));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(std::string received_sql, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(plan,
                            ctx->mediator->PlanSelectionQuery(received_sql));
    BinaryWriter w;
    w.WriteString(plan.partial_query);
    SECMED_ASSIGN_OR_RETURN(Bytes rest, r.ReadRaw(r.remaining()));
    w.WriteRaw(rest);  // credentials forwarded verbatim
    bus.Send(mediator, plan.source, kMsgRangePartial, w.TakeBuffer());
  }

  // Datasource: DAS-encrypt with bucketization indexes on every integer
  // column, under one etuple key; ship the relation to the mediator, the
  // index tables and the key (sealed) to the client.
  {
    auto it = ctx->sources.find(plan.source);
    if (it == ctx->sources.end()) {
      return Status::NotFound("datasource " + plan.source + " not in context");
    }
    DataSource* source = it->second;
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(plan.source, kMsgRangePartial));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(std::string partial_sql, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
    std::vector<Credential> creds;
    for (uint32_t i = 0; i < n; ++i) {
      SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Credential c, Credential::Deserialize(raw));
      creds.push_back(std::move(c));
    }
    SECMED_ASSIGN_OR_RETURN(Relation partial,
                            source->ExecutePartialQuery(partial_sql, creds));
    SECMED_ASSIGN_OR_RETURN(RsaPublicKey client_key,
                            source->ClientKeyFrom(creds));

    std::vector<std::string> indexed_columns;
    std::vector<IndexTable> itables;
    for (size_t c = 0; c < partial.schema().size(); ++c) {
      if (partial.schema().column(c).type != ValueType::kInt64) continue;
      Bytes salt = ctx->rng->Generate(16);
      SECMED_ASSIGN_OR_RETURN(
          IndexTable itable,
          IndexTable::Build(partial, partial.schema().column(c).name,
                            options_.strategy, options_.num_partitions, salt));
      indexed_columns.push_back(partial.schema().column(c).name);
      itables.push_back(std::move(itable));
    }
    if (indexed_columns.empty()) {
      return Status::InvalidArgument(
          "relation has no integer columns to index for range queries");
    }
    const Bytes etuple_key = Aead::GenerateKey(ctx->rng);
    SECMED_ASSIGN_OR_RETURN(
        DasRelation encrypted,
        DasEncryptRelation(partial, indexed_columns, itables, etuple_key,
                           ctx->rng, {}, ResolveThreads(ctx->threads)));
    bus.Send(plan.source, mediator, kMsgRangeEncrypted, encrypted.Serialize());

    BinaryWriter kw;
    partial.schema().EncodeTo(&kw);
    kw.WriteU32(static_cast<uint32_t>(itables.size()));
    for (const IndexTable& itable : itables) kw.WriteBytes(itable.Serialize());
    kw.WriteBytes(etuple_key);
    SECMED_ASSIGN_OR_RETURN(Bytes sealed,
                            HybridEncrypt(client_key, kw.buffer(), ctx->rng));
    bus.Send(plan.source, mediator, kMsgRangeItables, sealed);
  }

  // Mediator keeps the encrypted relation, forwards the sealed tables.
  DasRelation encrypted;
  {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgRangeEncrypted));
    SECMED_ASSIGN_OR_RETURN(encrypted, DasRelation::Deserialize(msg.payload));
    SECMED_ASSIGN_OR_RETURN(Message itab,
                            bus.ReceiveOfType(mediator, kMsgRangeItables));
    bus.Send(mediator, client, kMsgRangeItables, itab.payload);
  }

  // Client: map the range onto buckets of its column's index table.
  Schema schema;
  Bytes etuple_key;
  {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(client, kMsgRangeItables));
    SECMED_ASSIGN_OR_RETURN(
        Bytes plain, HybridDecrypt(ctx->client->private_key(), msg.payload));
    BinaryReader r(plain);
    SECMED_ASSIGN_OR_RETURN(schema, Schema::DecodeFrom(&r));
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    std::vector<IndexTable> itables;
    for (uint32_t i = 0; i < count; ++i) {
      SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(IndexTable itable, IndexTable::Deserialize(raw));
      itables.push_back(std::move(itable));
    }
    SECMED_ASSIGN_OR_RETURN(etuple_key, r.ReadBytes());
    // Locate the filtered column's table and position.
    const std::string base = Schema::BaseName(range.column);
    size_t table_pos = itables.size();
    for (size_t i = 0; i < itables.size(); ++i) {
      if (Schema::BaseName(itables[i].attribute()) == base) table_pos = i;
    }
    if (table_pos == itables.size()) {
      return Status::InvalidArgument("no index table for column " +
                                     range.column);
    }
    DasPartition probe;
    probe.is_range = true;
    probe.lo = range.lo;
    probe.hi = range.hi;
    std::set<uint64_t> buckets;
    for (const DasPartition& p : itables[table_pos].partitions()) {
      if (p.Overlaps(probe)) buckets.insert(p.index);
    }
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(table_pos));
    w.WriteU32(static_cast<uint32_t>(buckets.size()));
    for (uint64_t b : buckets) w.WriteU64(b);
    bus.Send(client, mediator, kMsgRangeBuckets, w.TakeBuffer());
  }

  // Mediator: return every etuple whose index value for that column is in
  // the requested bucket set.
  {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgRangeBuckets));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint32_t pos, r.ReadU32());
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    std::set<uint64_t> buckets;
    for (uint32_t i = 0; i < count; ++i) {
      SECMED_ASSIGN_OR_RETURN(uint64_t b, r.ReadU64());
      buckets.insert(b);
    }
    BinaryWriter w;
    uint32_t selected = 0;
    BinaryWriter rows;
    for (const DasTuple& t : encrypted.tuples) {
      if (pos >= t.join_indexes.size()) continue;
      if (buckets.count(t.join_indexes[pos]) == 0) continue;
      rows.WriteBytes(t.etuple);
      ++selected;
    }
    w.WriteU32(selected);
    w.WriteRaw(rows.buffer());
    bus.Send(mediator, client, kMsgRangeResult, w.TakeBuffer());
  }

  // Client: decrypt the superset, apply the exact predicate.
  SECMED_ASSIGN_OR_RETURN(Message msg,
                          bus.ReceiveOfType(client, kMsgRangeResult));
  BinaryReader r(msg.payload);
  SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  std::vector<Bytes> etuples;
  etuples.reserve(std::min<size_t>(count, r.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes etuple, r.ReadBytes());
    etuples.push_back(std::move(etuple));
  }
  SECMED_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          OpenEtuples(etuple_key, etuples));
  Relation superset(schema);
  for (Tuple& t : tuples) {
    SECMED_RETURN_IF_ERROR(superset.Append(std::move(t)));
  }
  last_superset_size_ = superset.size();
  return Select(superset, exact_filter);
}

}  // namespace secmed
