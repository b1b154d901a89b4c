#ifndef SECMED_DAS_SEARCHABLE_H_
#define SECMED_DAS_SEARCHABLE_H_

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "relational/relation.h"
#include "util/result.h"
#include "util/rng.h"

namespace secmed {

/// Exact-match selection over encrypted relations, after Yang, Zhong and
/// Wright (Related Work, Section 7): "they encrypt each attribute value
/// separately. Each encrypted value also has a 'checksum' that is
/// necessary for query execution on the encrypted table. [...] the server
/// returns the exact set of encrypted values that satisfy the condition."
///
/// Our instantiation is a searchable symmetric encryption: each row is
/// sealed as an etuple under a row key, and every cell additionally
/// carries a deterministic *search tag* HMAC(k_col, value) truncated to
/// 128 bits. The data owner's row key and column keys k_col are shared
/// with the client (sealed under its public key); to select rows with
/// col = v the client computes
/// the token HMAC(k_col, v) and the untrusted evaluator matches tags —
/// learning only which hidden rows satisfy the (hidden) condition, plus
/// the tag-equality pattern across rows.
///
/// Compared with DAS bucketization this returns the *exact* matching rows
/// (no client post-processing) at the price of deterministic per-column
/// tags (equal values share a tag).

/// One encrypted row: the sealed tuple plus one search tag per column.
struct SearchableRow {
  Bytes sealed_tuple;
  std::vector<Bytes> tags;  // one 16-byte tag per column; empty tag for NULL
};

/// An encrypted, searchable relation.
struct SearchableRelation {
  Schema schema;  // column names/types (public metadata in this model)
  std::vector<SearchableRow> rows;

  size_t size() const { return rows.size(); }

  Bytes Serialize() const;
  static Result<SearchableRelation> Deserialize(const Bytes& data);
};

/// Per-relation keys: one independent search key per column, and the key
/// the rows are sealed under.
struct SearchKeys {
  std::vector<Bytes> column_keys;  // 32 bytes each
  Bytes row_key;                   // an Aead key

  Bytes Serialize() const;
  static Result<SearchKeys> Deserialize(const Bytes& data);
};

/// Draws fresh search keys for a schema.
SearchKeys GenerateSearchKeys(const Schema& schema, RandomSource* rng);

/// Search tag of one value under one column key (16 bytes).
Bytes SearchTag(const Bytes& column_key, const Value& v);

/// Encrypts a relation searchably: rows sealed under `keys.row_key`, tags
/// from the column keys.
Result<SearchableRelation> SearchableEncrypt(const Relation& rel,
                                             const SearchKeys& keys,
                                             RandomSource* rng);

/// A selection token: conjunction of (column, tag) equality conditions.
struct SelectionToken {
  std::vector<std::pair<std::string, Bytes>> conditions;

  Bytes Serialize() const;
  static Result<SelectionToken> Deserialize(const Bytes& data);
};

/// Builds the token for a conjunction of col = value conditions.
Result<SelectionToken> MakeSelectionToken(
    const SearchKeys& keys, const Schema& schema,
    const std::vector<std::pair<std::string, Value>>& equalities);

/// Untrusted evaluation: returns the sealed tuples whose tags satisfy all
/// of the token's conditions. The evaluator sees only ciphertexts/tags.
Result<std::vector<Bytes>> EvaluateSelection(const SearchableRelation& rel,
                                             const SelectionToken& token);

/// Client-side: opens the selected rows with `keys.row_key`.
Result<Relation> OpenSelection(const std::vector<Bytes>& sealed_rows,
                               const Schema& schema, const SearchKeys& keys);

}  // namespace secmed

#endif  // SECMED_DAS_SEARCHABLE_H_
