#include "mediation/mediator.h"

namespace secmed {

std::string JoinQueryPlan::ToString() const {
  return "JoinQueryPlan{" + table1 + "@" + source1 + " ⋈_" + join_attribute +
         " " + table2 + "@" + source2 + ", q1=\"" + partial_query1 +
         "\", q2=\"" + partial_query2 + "\"}";
}

void Mediator::RegisterTable(const std::string& table,
                             const std::string& source, Schema schema) {
  tables_[table] = TableInfo{source, std::move(schema)};
}

Result<std::string> Mediator::SourceOf(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no datasource registered for table " + table);
  }
  return it->second.source;
}

Result<Schema> Mediator::SchemaOf(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no schema registered for table " + table);
  }
  return it->second.schema;
}

Result<JoinQueryPlan> Mediator::PlanJoinQuery(const std::string& sql) const {
  SECMED_ASSIGN_OR_RETURN(ParsedQuery query, ParseSql(sql));
  if (!query.select_columns.empty()) {
    return Status::Unimplemented(
        "protocols support SELECT * join queries; projections are client-side "
        "post-processing");
  }
  if (query.where && query.where->kind() != Predicate::Kind::kTrue) {
    return Status::Unimplemented(
        "WHERE clauses on the global join query are not supported by the "
        "delivery protocols");
  }
  if (query.HasAggregates() || !query.group_by.empty() ||
      !query.order_by.empty() || query.limit != SIZE_MAX) {
    return Status::Unimplemented(
        "aggregates, GROUP BY, ORDER BY and LIMIT on a two-relation join "
        "are not supported by the delivery protocols");
  }
  if (query.joins.size() != 1) {
    return Status::Unimplemented(
        "protocols mediate exactly one JOIN of two relations (got " +
        std::to_string(query.joins.size()) + " joins)");
  }

  JoinQueryPlan plan;
  plan.table1 = query.from.name;
  plan.table2 = query.joins[0].table.name;
  SECMED_ASSIGN_OR_RETURN(plan.source1, SourceOf(plan.table1));
  SECMED_ASSIGN_OR_RETURN(plan.source2, SourceOf(plan.table2));
  SECMED_ASSIGN_OR_RETURN(plan.schema1, SchemaOf(plan.table1));
  SECMED_ASSIGN_OR_RETURN(plan.schema2, SchemaOf(plan.table2));

  if (query.joins[0].natural) {
    // The join attributes are the common columns of the embedded schemas.
    std::vector<std::string> common = plan.schema1.CommonColumns(plan.schema2);
    if (common.empty()) {
      return Status::Unimplemented(
          "protocols require at least one shared join attribute; the schemas "
          "share none");
    }
    plan.join_attributes = std::move(common);
  } else {
    for (const auto& [left_full, right_full] : query.joins[0].on_pairs) {
      const std::string left = Schema::BaseName(left_full);
      const std::string right = Schema::BaseName(right_full);
      if (left != right) {
        return Status::Unimplemented(
            "protocols require R1.A = R2.A on common attribute names; got " +
            left + " vs " + right);
      }
      if (!plan.schema1.HasColumn(left) || !plan.schema2.HasColumn(left)) {
        return Status::InvalidArgument("join attribute " + left +
                                       " missing from a joined schema");
      }
      // Skip duplicates (ON a.x = b.x AND a.x = b.x).
      bool seen = false;
      for (const std::string& a : plan.join_attributes) seen |= a == left;
      if (!seen) plan.join_attributes.push_back(left);
    }
    if (plan.join_attributes.empty()) {
      return Status::InvalidArgument("ON clause names no join attribute");
    }
  }
  plan.join_attribute = plan.join_attributes[0];
  plan.partial_query1 = "select * from " + plan.table1;
  plan.partial_query2 = "select * from " + plan.table2;
  return plan;
}

}  // namespace secmed
