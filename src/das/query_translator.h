#ifndef SECMED_DAS_QUERY_TRANSLATOR_H_
#define SECMED_DAS_QUERY_TRANSLATOR_H_

#include <utility>
#include <vector>

#include "das/das_relation.h"
#include "das/index_table.h"
#include "relational/relation.h"
#include "util/result.h"

namespace secmed {

/// The server query qS of the client-setting DAS protocol (Listing 2):
/// RC := σ_CondS(R1S × R2S), where CondS requires, for every join
/// attribute, the two index values to belong to overlapping partitions.
/// Represented extensionally as one set of matching
/// (R1S.index, R2S.index) pairs per attribute.
struct DasServerQuery {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> per_attribute_pairs;

  Bytes Serialize() const;
  static Result<DasServerQuery> Deserialize(const Bytes& data);
};

/// The server result RC, factorized: each R1S and R2S etuple that occurs
/// in a pair of RC is sent once, and the pairs of RC are (position in
/// etuples1, position in etuples2), in the order the mediator found them.
/// So the bytes grow with the tuples involved, not with the candidate
/// pairs.
struct DasServerResult {
  std::vector<Bytes> etuples1;
  std::vector<Bytes> etuples2;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;

  /// |RC|: the number of candidate pairs.
  size_t size() const { return pairs.size(); }

  Bytes Serialize() const;
  static Result<DasServerResult> Deserialize(const Bytes& data);
};

/// The DAS query translator, placed at the client in our protocol
/// (Section 3.1, "client setting"). Builds qS from the decrypted index
/// tables, one per join attribute per source. The client query qC —
/// equality of the real join values — is applied by ApplyClientQuery
/// after decryption.
DasServerQuery TranslateToServerQuery(const std::vector<IndexTable>& itables1,
                                      const std::vector<IndexTable>& itables2);

/// Single-attribute convenience overload.
DasServerQuery TranslateToServerQuery(const IndexTable& itable1,
                                      const IndexTable& itable2);

/// Mediator-side evaluation of qS over the two encrypted partial results.
/// Pairs are matched via a hash table on the first attribute's index and
/// verified on the remaining attributes.
DasServerResult EvaluateServerQuery(const DasRelation& r1, const DasRelation& r2,
                                    const DasServerQuery& query);

/// Client-side post-processing: opens each etuple of RC once (decryptDAS,
/// under the key of the source that sealed it) and walks the pairs in
/// order, keeping exactly those whose real values agree on every join
/// column (CondC). Produces the natural join of the partial results with
/// each join column appearing once. Fails with kProtocolError on an
/// etuple listed twice, a repeated pair or a position past the end: each
/// would repeat result rows.
Result<Relation> ApplyClientQuery(const DasServerResult& server_result,
                                  const Schema& schema1, const Schema& schema2,
                                  const std::vector<std::string>& join_columns,
                                  const Bytes& etuple_key1,
                                  const Bytes& etuple_key2);

}  // namespace secmed

#endif  // SECMED_DAS_QUERY_TRANSLATOR_H_
