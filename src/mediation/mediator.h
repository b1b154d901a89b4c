#ifndef SECMED_MEDIATION_MEDIATOR_H_
#define SECMED_MEDIATION_MEDIATOR_H_

#include <map>
#include <string>

#include "relational/schema.h"
#include "relational/sql.h"
#include "util/result.h"

namespace secmed {

/// The execution plan for the query class the paper confines itself to:
/// one JOIN of two "select *" partial queries over relations managed by
/// two datasources, with a single join attribute Ajoin.
struct JoinQueryPlan {
  std::string table1;
  std::string table2;
  std::string source1;  // datasource managing table1
  std::string source2;
  /// Unqualified join attributes. The paper's base protocols assume one
  /// (Ajoin); the multi-attribute extension of Section 8 allows several —
  /// all must match for a tuple pair to join.
  std::vector<std::string> join_attributes;
  /// The primary join attribute (join_attributes[0]); kept for the common
  /// single-attribute case.
  std::string join_attribute;
  std::string partial_query1;  // "select * from <table1>"
  std::string partial_query2;
  Schema schema1;  // global schema of table1
  Schema schema2;

  std::string ToString() const;
};

/// The mediator: holds the embedding of datasource schemas into the
/// global schema (Section 2, [2]), localizes the datasources for a global
/// query, and splits the query into partial queries using SQL2Algebra.
///
/// The mediator never sees plaintext data; scheme-specific processing of
/// the encrypted partial results is in the protocol layer (src/core).
class Mediator {
 public:
  explicit Mediator(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Registers a global table: which datasource manages it and its global
  /// schema (the embedding).
  void RegisterTable(const std::string& table, const std::string& source,
                     Schema schema);

  /// Datasource managing the table; kNotFound when unregistered.
  Result<std::string> SourceOf(const std::string& table) const;
  Result<Schema> SchemaOf(const std::string& table) const;

  /// Step 2 of Listing 1: parses the global query, checks it is a single
  /// two-relation JOIN, identifies the join attributes (A1 = A2) and the
  /// responsible datasources, and produces the partial queries.
  ///
  /// The delivery protocols return the whole join, so only `SELECT *`
  /// with no WHERE, aggregate, GROUP BY, ORDER BY or LIMIT is accepted;
  /// any of those fails with kUnimplemented rather than returning the raw
  /// join. (A k-way CascadeExecutor sends each level `SELECT *` and
  /// applies them at the client.) Also rejected: non-join queries, joins
  /// of more than two relations, joins without a shared attribute, and
  /// joins over unregistered tables.
  Result<JoinQueryPlan> PlanJoinQuery(const std::string& sql) const;

 private:
  struct TableInfo {
    std::string source;
    Schema schema;
  };

  std::string name_;
  std::map<std::string, TableInfo> tables_;
};

}  // namespace secmed

#endif  // SECMED_MEDIATION_MEDIATOR_H_
