#include "das/searchable.h"

#include "crypto/aead.h"
#include "crypto/sha256.h"
#include "das/das_relation.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr size_t kTagLen = 16;
constexpr size_t kColumnKeyLen = 32;
}  // namespace

Bytes SearchableRelation::Serialize() const {
  BinaryWriter w;
  schema.EncodeTo(&w);
  w.WriteU32(static_cast<uint32_t>(rows.size()));
  for (const SearchableRow& row : rows) {
    w.WriteBytes(row.sealed_tuple);
    w.WriteU32(static_cast<uint32_t>(row.tags.size()));
    for (const Bytes& tag : row.tags) w.WriteBytes(tag);
  }
  return w.TakeBuffer();
}

Result<SearchableRelation> SearchableRelation::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SearchableRelation rel;
  SECMED_ASSIGN_OR_RETURN(rel.schema, Schema::DecodeFrom(&r));
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  rel.rows.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SearchableRow row;
    SECMED_ASSIGN_OR_RETURN(row.sealed_tuple, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(uint32_t tags, r.ReadU32());
    row.tags.reserve(std::min<size_t>(tags, r.remaining()));
    for (uint32_t k = 0; k < tags; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes tag, r.ReadBytes());
      row.tags.push_back(std::move(tag));
    }
    rel.rows.push_back(std::move(row));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes in searchable relation");
  }
  return rel;
}

Bytes SearchKeys::Serialize() const {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(column_keys.size()));
  for (const Bytes& k : column_keys) w.WriteBytes(k);
  w.WriteBytes(row_key);
  return w.TakeBuffer();
}

Result<SearchKeys> SearchKeys::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SearchKeys keys;
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  keys.column_keys.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes k, r.ReadBytes());
    if (k.size() != kColumnKeyLen) {
      return Status::ParseError("bad column key length");
    }
    keys.column_keys.push_back(std::move(k));
  }
  SECMED_ASSIGN_OR_RETURN(keys.row_key, r.ReadBytes());
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in search keys");
  return keys;
}

SearchKeys GenerateSearchKeys(const Schema& schema, RandomSource* rng) {
  SearchKeys keys;
  keys.column_keys.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    keys.column_keys.push_back(rng->Generate(kColumnKeyLen));
  }
  keys.row_key = Aead::GenerateKey(rng);
  return keys;
}

Bytes SearchTag(const Bytes& column_key, const Value& v) {
  Bytes tag = HmacSha256(column_key, v.Encode());
  tag.resize(kTagLen);
  return tag;
}

Result<SearchableRelation> SearchableEncrypt(const Relation& rel,
                                             const SearchKeys& keys,
                                             RandomSource* rng) {
  if (keys.column_keys.size() != rel.schema().size()) {
    return Status::InvalidArgument("search keys do not match the schema");
  }
  SECMED_ASSIGN_OR_RETURN(std::vector<Bytes> sealed,
                          SealEtuples(keys.row_key, rel.tuples(), rng));
  SearchableRelation out;
  out.schema = rel.schema();
  out.rows.reserve(rel.size());
  for (size_t r = 0; r < rel.size(); ++r) {
    const Tuple& t = rel.tuples()[r];
    SearchableRow row;
    row.sealed_tuple = std::move(sealed[r]);
    row.tags.reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      // NULL cells carry an empty tag: NULL = NULL is never true in SQL,
      // so NULL rows must not match any token.
      row.tags.push_back(t[i].is_null()
                             ? Bytes()
                             : SearchTag(keys.column_keys[i], t[i]));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Bytes SelectionToken::Serialize() const {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(conditions.size()));
  for (const auto& [col, tag] : conditions) {
    w.WriteString(col);
    w.WriteBytes(tag);
  }
  return w.TakeBuffer();
}

Result<SelectionToken> SelectionToken::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SelectionToken token;
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  token.conditions.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    std::pair<std::string, Bytes> cond;
    SECMED_ASSIGN_OR_RETURN(cond.first, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(cond.second, r.ReadBytes());
    token.conditions.push_back(std::move(cond));
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in token");
  return token;
}

Result<SelectionToken> MakeSelectionToken(
    const SearchKeys& keys, const Schema& schema,
    const std::vector<std::pair<std::string, Value>>& equalities) {
  if (equalities.empty()) {
    return Status::InvalidArgument("token needs at least one condition");
  }
  SelectionToken token;
  for (const auto& [col, value] : equalities) {
    SECMED_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    if (value.is_null()) {
      return Status::InvalidArgument("cannot search for NULL");
    }
    token.conditions.emplace_back(schema.column(idx).name,
                                  SearchTag(keys.column_keys[idx], value));
  }
  return token;
}

Result<std::vector<Bytes>> EvaluateSelection(const SearchableRelation& rel,
                                             const SelectionToken& token) {
  std::vector<size_t> cols;
  for (const auto& [col, tag] : token.conditions) {
    SECMED_ASSIGN_OR_RETURN(size_t idx, rel.schema.IndexOf(col));
    cols.push_back(idx);
  }
  std::vector<Bytes> out;
  for (const SearchableRow& row : rel.rows) {
    if (row.tags.size() != rel.schema.size()) {
      return Status::DataLoss("malformed searchable row");
    }
    bool all = true;
    for (size_t k = 0; k < cols.size() && all; ++k) {
      all = !row.tags[cols[k]].empty() &&
            ConstantTimeEquals(row.tags[cols[k]], token.conditions[k].second);
    }
    if (all) out.push_back(row.sealed_tuple);
  }
  return out;
}

Result<Relation> OpenSelection(const std::vector<Bytes>& sealed_rows,
                               const Schema& schema, const SearchKeys& keys) {
  SECMED_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          OpenEtuples(keys.row_key, sealed_rows));
  Relation out(schema);
  for (Tuple& t : tuples) SECMED_RETURN_IF_ERROR(out.Append(std::move(t)));
  return out;
}

}  // namespace secmed
