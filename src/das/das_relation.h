#ifndef SECMED_DAS_DAS_RELATION_H_
#define SECMED_DAS_DAS_RELATION_H_

#include <string>
#include <vector>

#include "das/index_table.h"
#include "obs/scope.h"
#include "relational/relation.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// One encrypted tuple tS = <etuple, aS_1, ..., aS_k> of the DAS-encrypted
/// relation RS (Section 3): `etuple` is the whole plaintext tuple sealed
/// under the delivery's etuple key, `join_indexes` holds the index value
/// of the partition containing the tuple's value for each indexed join
/// attribute (one in the paper's base protocol; several in the Section 8
/// multi-attribute extension).
struct DasTuple {
  Bytes etuple;
  std::vector<uint64_t> join_indexes;
};

/// A DAS-encrypted partial result RS = {<etuple, aS_1..aS_k>}.
struct DasRelation {
  std::string name;
  std::vector<DasTuple> tuples;

  size_t size() const { return tuples.size(); }

  Bytes Serialize() const;
  static Result<DasRelation> Deserialize(const Bytes& data);
};

/// Encrypts a partial result tuple-wise per the DAS approach (Hacıgümüş
/// et al.): every tuple is sealed as an etuple under the symmetric
/// `etuple_key` (an Aead key the source draws once per delivery and seals
/// for the client alone), and each join attribute is mapped to its index
/// value through the corresponding index table. `join_columns` and
/// `index_tables` must have equal, non-zero length.
///
/// Every IV is drawn from `rng` in tuple order, in one call, before
/// `threads` sealing workers run, so the output is bit-identical for every
/// thread count under a seeded `rng`. A non-null `scope` instruments the
/// sealing loop under `label` (per-worker spans and items counters).
Result<DasRelation> DasEncryptRelation(
    const Relation& rel, const std::vector<std::string>& join_columns,
    const std::vector<IndexTable>& index_tables, const Bytes& etuple_key,
    RandomSource* rng, size_t threads = 1, obs::Scope* scope = nullptr,
    const char* label = "das.encrypt_relation");

/// Single-attribute convenience overload (the paper's base protocol).
Result<DasRelation> DasEncryptRelation(const Relation& rel,
                                       const std::string& join_column,
                                       const IndexTable& index_table,
                                       const Bytes& etuple_key,
                                       RandomSource* rng);

/// Opens etuples sealed under `etuple_key` and decodes their tuples, in
/// order. Fails with kCryptoError on a tampered etuple or a wrong key.
Result<std::vector<Tuple>> OpenEtuples(const Bytes& etuple_key,
                                       const std::vector<Bytes>& etuples);

/// Client-side decryptDAS: opens every etuple and drops the index values,
/// restoring the plaintext relation with the given schema.
Result<Relation> DasDecryptRelation(const DasRelation& encrypted,
                                    const Schema& schema,
                                    const Bytes& etuple_key);

}  // namespace secmed

#endif  // SECMED_DAS_DAS_RELATION_H_
