#include "das/query_translator.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/serialize.h"

namespace secmed {

Bytes DasServerQuery::Serialize() const {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(per_attribute_pairs.size()));
  for (const auto& pairs : per_attribute_pairs) {
    w.WriteU32(static_cast<uint32_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
      w.WriteU64(a);
      w.WriteU64(b);
    }
  }
  return w.TakeBuffer();
}

Result<DasServerQuery> DasServerQuery::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  DasServerQuery q;
  SECMED_ASSIGN_OR_RETURN(uint32_t attrs, r.ReadU32());
  if (attrs > r.remaining()) {
    return Status::ParseError("implausible attribute count");
  }
  q.per_attribute_pairs.resize(attrs);
  for (uint32_t k = 0; k < attrs; ++k) {
    SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
    q.per_attribute_pairs[k].reserve(std::min<size_t>(n, r.remaining()));
    for (uint32_t i = 0; i < n; ++i) {
      SECMED_ASSIGN_OR_RETURN(uint64_t a, r.ReadU64());
      SECMED_ASSIGN_OR_RETURN(uint64_t b, r.ReadU64());
      q.per_attribute_pairs[k].emplace_back(a, b);
    }
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in server query");
  return q;
}

namespace {
void WriteEtuples(const std::vector<Bytes>& etuples, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(etuples.size()));
  for (const Bytes& e : etuples) w->WriteBytes(e);
}

Result<std::vector<Bytes>> ReadEtuples(BinaryReader* r) {
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  std::vector<Bytes> etuples;
  etuples.reserve(std::min<size_t>(n, r->remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes e, r->ReadBytes());
    etuples.push_back(std::move(e));
  }
  return etuples;
}
}  // namespace

Bytes DasServerResult::Serialize() const {
  BinaryWriter w;
  WriteEtuples(etuples1, &w);
  WriteEtuples(etuples2, &w);
  w.WriteU32(static_cast<uint32_t>(pairs.size()));
  for (const auto& [a, b] : pairs) {
    w.WriteU32(a);
    w.WriteU32(b);
  }
  return w.TakeBuffer();
}

Result<DasServerResult> DasServerResult::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  DasServerResult res;
  SECMED_ASSIGN_OR_RETURN(res.etuples1, ReadEtuples(&r));
  SECMED_ASSIGN_OR_RETURN(res.etuples2, ReadEtuples(&r));
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  res.pairs.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SECMED_ASSIGN_OR_RETURN(uint32_t a, r.ReadU32());
    SECMED_ASSIGN_OR_RETURN(uint32_t b, r.ReadU32());
    res.pairs.emplace_back(a, b);
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in server result");
  return res;
}

DasServerQuery TranslateToServerQuery(const std::vector<IndexTable>& itables1,
                                      const std::vector<IndexTable>& itables2) {
  DasServerQuery q;
  const size_t attrs = std::min(itables1.size(), itables2.size());
  q.per_attribute_pairs.reserve(attrs);
  for (size_t k = 0; k < attrs; ++k) {
    q.per_attribute_pairs.push_back(itables1[k].OverlappingPairs(itables2[k]));
  }
  return q;
}

DasServerQuery TranslateToServerQuery(const IndexTable& itable1,
                                      const IndexTable& itable2) {
  return TranslateToServerQuery(std::vector<IndexTable>{itable1},
                                std::vector<IndexTable>{itable2});
}

namespace {
// Packs an index pair for set membership tests. Collisions across
// different pairs are avoided by hashing both 64-bit halves.
struct PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    uint64_t h = p.first * 0x9E3779B97F4A7C15ULL;
    h ^= p.second + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};
}  // namespace

DasServerResult EvaluateServerQuery(const DasRelation& r1,
                                    const DasRelation& r2,
                                    const DasServerQuery& query) {
  DasServerResult out;
  if (query.per_attribute_pairs.empty()) return out;
  const size_t attrs = query.per_attribute_pairs.size();

  // Per-attribute allowed-pair sets; attribute 0 additionally maps
  // r1-index -> candidate r2-indexes to drive the probe.
  std::vector<std::unordered_set<std::pair<uint64_t, uint64_t>, PairHash>>
      allowed(attrs);
  for (size_t k = 0; k < attrs; ++k) {
    for (const auto& pair : query.per_attribute_pairs[k]) {
      allowed[k].insert(pair);
    }
  }
  std::unordered_map<uint64_t, std::vector<uint64_t>> first_candidates;
  for (const auto& [a, b] : query.per_attribute_pairs[0]) {
    first_candidates[a].push_back(b);
  }

  std::unordered_map<uint64_t, std::vector<const DasTuple*>> r2_by_first;
  for (const DasTuple& t : r2.tuples) {
    if (t.join_indexes.size() != attrs) continue;  // malformed; skip
    r2_by_first[t.join_indexes[0]].push_back(&t);
  }

  // An etuple's position in its side's list, appending it on first use.
  using Positions = std::unordered_map<const DasTuple*, uint32_t>;
  Positions pos1, pos2;
  auto position = [](const DasTuple* t, Positions* pos,
                     std::vector<Bytes>* etuples) {
    auto [it, inserted] =
        pos->try_emplace(t, static_cast<uint32_t>(etuples->size()));
    if (inserted) etuples->push_back(t->etuple);
    return it->second;
  };

  for (const DasTuple& t1 : r1.tuples) {
    if (t1.join_indexes.size() != attrs) continue;
    auto it = first_candidates.find(t1.join_indexes[0]);
    if (it == first_candidates.end()) continue;
    for (uint64_t idx2 : it->second) {
      auto jt = r2_by_first.find(idx2);
      if (jt == r2_by_first.end()) continue;
      for (const DasTuple* t2 : jt->second) {
        bool all_match = true;
        for (size_t k = 1; k < attrs && all_match; ++k) {
          all_match = allowed[k].count(
                          {t1.join_indexes[k], t2->join_indexes[k]}) > 0;
        }
        if (all_match) {
          out.pairs.emplace_back(position(&t1, &pos1, &out.etuples1),
                                 position(t2, &pos2, &out.etuples2));
        }
      }
    }
  }
  return out;
}

namespace {
// Opens one side's etuples after checking that none is listed twice.
Result<std::vector<Tuple>> OpenSide(const std::vector<Bytes>& etuples,
                                    const Bytes& etuple_key,
                                    const Schema& schema) {
  std::unordered_set<std::string_view> seen;
  for (const Bytes& e : etuples) {
    if (!seen.emplace(reinterpret_cast<const char*>(e.data()), e.size())
             .second) {
      return Status::ProtocolError("etuple listed twice in the server result");
    }
  }
  SECMED_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          OpenEtuples(etuple_key, etuples));
  for (const Tuple& t : tuples) {
    if (t.size() != schema.size()) {
      return Status::DataLoss("decrypted tuple arity mismatch");
    }
  }
  return tuples;
}
}  // namespace

Result<Relation> ApplyClientQuery(const DasServerResult& server_result,
                                  const Schema& schema1, const Schema& schema2,
                                  const std::vector<std::string>& join_columns,
                                  const Bytes& etuple_key1,
                                  const Bytes& etuple_key2) {
  if (join_columns.empty()) {
    return Status::InvalidArgument("no join columns given");
  }
  std::vector<size_t> j1, j2;
  for (const std::string& col : join_columns) {
    SECMED_ASSIGN_OR_RETURN(size_t a, schema1.IndexOf(col));
    SECMED_ASSIGN_OR_RETURN(size_t b, schema2.IndexOf(col));
    j1.push_back(a);
    j2.push_back(b);
  }

  // Output schema: schema1 then schema2 minus all its join columns.
  std::vector<Column> cols = schema1.columns();
  std::vector<bool> drop2(schema2.size(), false);
  for (size_t b : j2) drop2[b] = true;
  for (size_t i = 0; i < schema2.size(); ++i) {
    if (!drop2[i]) cols.push_back(schema2.column(i));
  }
  Relation out{Schema(std::move(cols))};

  SECMED_ASSIGN_OR_RETURN(
      std::vector<Tuple> tuples1,
      OpenSide(server_result.etuples1, etuple_key1, schema1));
  SECMED_ASSIGN_OR_RETURN(
      std::vector<Tuple> tuples2,
      OpenSide(server_result.etuples2, etuple_key2, schema2));
  std::unordered_set<uint64_t> seen_pairs;
  for (const auto& [a, b] : server_result.pairs) {
    if (a >= tuples1.size() || b >= tuples2.size()) {
      return Status::ProtocolError("server result pair names no etuple");
    }
    if (!seen_pairs.insert((uint64_t{a} << 32) | b).second) {
      return Status::ProtocolError("repeated pair in the server result");
    }
    const Tuple& t1 = tuples1[a];
    const Tuple& t2 = tuples2[b];
    // CondC: every join value pair must be equal (and non-NULL).
    bool match = true;
    for (size_t k = 0; k < j1.size() && match; ++k) {
      match = !t1[j1[k]].is_null() && t1[j1[k]] == t2[j2[k]];
    }
    if (!match) continue;
    Tuple t = t1;
    for (size_t i = 0; i < t2.size(); ++i) {
      if (!drop2[i]) t.push_back(t2[i]);
    }
    out.AppendUnchecked(std::move(t));
  }
  return out;
}

}  // namespace secmed
