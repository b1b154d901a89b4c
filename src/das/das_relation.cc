#include "das/das_relation.h"

#include "crypto/aead.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

Bytes DasRelation::Serialize() const {
  BinaryWriter w;
  w.WriteString(name);
  w.WriteU32(static_cast<uint32_t>(tuples.size()));
  for (const DasTuple& t : tuples) {
    w.WriteBytes(t.etuple);
    w.WriteU32(static_cast<uint32_t>(t.join_indexes.size()));
    for (uint64_t idx : t.join_indexes) w.WriteU64(idx);
  }
  return w.TakeBuffer();
}

Result<DasRelation> DasRelation::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  DasRelation rel;
  SECMED_ASSIGN_OR_RETURN(rel.name, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  rel.tuples.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    DasTuple t;
    SECMED_ASSIGN_OR_RETURN(t.etuple, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(uint32_t k, r.ReadU32());
    if (k > r.remaining() / sizeof(uint64_t)) {
      return Status::ParseError("implausible join index count");
    }
    t.join_indexes.reserve(k);
    for (uint32_t j = 0; j < k; ++j) {
      SECMED_ASSIGN_OR_RETURN(uint64_t idx, r.ReadU64());
      t.join_indexes.push_back(idx);
    }
    rel.tuples.push_back(std::move(t));
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in DAS relation");
  return rel;
}

namespace {
// Seals each tuple as an etuple under `etuple_key`, in order, with the
// IVs drawn up front (see DasEncryptRelation).
Result<std::vector<Bytes>> SealEtuples(const Bytes& etuple_key,
                                       const std::vector<Tuple>& tuples,
                                       RandomSource* rng, size_t threads,
                                       obs::Scope* scope, const char* label) {
  SECMED_ASSIGN_OR_RETURN(Aead aead, Aead::Create(etuple_key));
  const Bytes ivs = rng->Generate(tuples.size() * Aead::kIvSize);
  std::vector<Bytes> etuples(tuples.size());
  SECMED_RETURN_IF_ERROR(ParallelForStatus(
      tuples.size(), threads,
      [&](size_t i) -> Status {
        const auto iv = ivs.begin() + i * Aead::kIvSize;
        SECMED_ASSIGN_OR_RETURN(
            etuples[i], aead.Seal(EncodeTuple(tuples[i]), Bytes(),
                                  Bytes(iv, iv + Aead::kIvSize)));
        return Status::OK();
      },
      scope, label));
  return etuples;
}
}  // namespace

Result<DasRelation> DasEncryptRelation(
    const Relation& rel, const std::vector<std::string>& join_columns,
    const std::vector<IndexTable>& index_tables, const Bytes& etuple_key,
    RandomSource* rng, size_t threads, obs::Scope* scope, const char* label) {
  if (join_columns.empty() || join_columns.size() != index_tables.size()) {
    return Status::InvalidArgument(
        "join columns and index tables must match and be non-empty");
  }
  std::vector<size_t> col_idx;
  for (const std::string& col : join_columns) {
    SECMED_ASSIGN_OR_RETURN(size_t i, rel.schema().IndexOf(col));
    col_idx.push_back(i);
  }
  DasRelation out;
  out.tuples.resize(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    const Tuple& t = rel.tuples()[i];
    DasTuple& dt = out.tuples[i];
    dt.join_indexes.reserve(col_idx.size());
    for (size_t k = 0; k < col_idx.size(); ++k) {
      SECMED_ASSIGN_OR_RETURN(uint64_t idx,
                              index_tables[k].IndexOf(t[col_idx[k]]));
      dt.join_indexes.push_back(idx);
    }
  }
  SECMED_ASSIGN_OR_RETURN(
      std::vector<Bytes> etuples,
      SealEtuples(etuple_key, rel.tuples(), rng, threads, scope, label));
  for (size_t i = 0; i < rel.size(); ++i) {
    out.tuples[i].etuple = std::move(etuples[i]);
  }
  return out;
}

Result<DasRelation> DasEncryptRelation(const Relation& rel,
                                       const std::string& join_column,
                                       const IndexTable& index_table,
                                       const Bytes& etuple_key,
                                       RandomSource* rng) {
  return DasEncryptRelation(rel, std::vector<std::string>{join_column},
                            std::vector<IndexTable>{index_table}, etuple_key,
                            rng);
}

Result<std::vector<Tuple>> OpenEtuples(const Bytes& etuple_key,
                                       const std::vector<Bytes>& etuples) {
  SECMED_ASSIGN_OR_RETURN(Aead aead, Aead::Create(etuple_key));
  std::vector<Tuple> out;
  out.reserve(etuples.size());
  for (const Bytes& etuple : etuples) {
    SECMED_ASSIGN_OR_RETURN(Bytes plain, aead.Open(etuple, Bytes()));
    SECMED_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(plain));
    out.push_back(std::move(t));
  }
  return out;
}

Result<Relation> DasDecryptRelation(const DasRelation& encrypted,
                                    const Schema& schema,
                                    const Bytes& etuple_key) {
  std::vector<Bytes> etuples;
  etuples.reserve(encrypted.size());
  for (const DasTuple& dt : encrypted.tuples) etuples.push_back(dt.etuple);
  SECMED_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          OpenEtuples(etuple_key, etuples));
  Relation out(schema);
  for (Tuple& t : tuples) SECMED_RETURN_IF_ERROR(out.Append(std::move(t)));
  return out;
}

}  // namespace secmed
