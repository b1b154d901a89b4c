#ifndef SECMED_RELATIONAL_PREDICATE_H_
#define SECMED_RELATIONAL_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/result.h"

namespace secmed {

/// Comparison operators of the predicate language.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// Boolean predicate over a tuple: comparisons of column references and
/// literals combined with AND / OR / NOT. Shared immutable tree.
class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

class Predicate {
 public:
  enum class Kind { kCompare, kAnd, kOr, kNot, kTrue, kFalse };

  /// Operand of a comparison: either a column reference or a literal.
  struct Operand {
    bool is_column = false;
    std::string column;  // when is_column
    Value literal;       // when !is_column

    static Operand Col(std::string name) {
      Operand o;
      o.is_column = true;
      o.column = std::move(name);
      return o;
    }
    static Operand Lit(Value v) {
      Operand o;
      o.literal = std::move(v);
      return o;
    }
  };

  static PredicatePtr True();
  static PredicatePtr False();
  static PredicatePtr Compare(Operand lhs, CompareOp op, Operand rhs);
  static PredicatePtr And(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Or(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Not(PredicatePtr a);

  /// Convenience: column = literal.
  static PredicatePtr ColumnEquals(std::string column, Value v);

  /// OR of a list of predicates (the big disjunction CondS of the DAS
  /// server query). An empty list yields False() — no partition pair
  /// overlaps, so the server result is empty.
  static PredicatePtr DisjunctionOf(std::vector<PredicatePtr> preds);

  Kind kind() const { return kind_; }

  // Structural accessors (for query planners walking the tree).
  const Operand& lhs() const { return lhs_; }
  CompareOp op() const { return op_; }
  const Operand& rhs() const { return rhs_; }
  const PredicatePtr& left() const { return a_; }
  const PredicatePtr& right() const { return b_; }

  /// Evaluates against a tuple. Column references resolve through the
  /// schema; comparisons involving NULL evaluate to false (SQL-ish).
  Result<bool> Eval(const Tuple& tuple, const Schema& schema) const;

  std::string ToString() const;

 private:
  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  // kCompare:
  Operand lhs_;
  CompareOp op_ = CompareOp::kEq;
  Operand rhs_;
  // kAnd / kOr / kNot:
  PredicatePtr a_;
  PredicatePtr b_;
};

}  // namespace secmed

#endif  // SECMED_RELATIONAL_PREDICATE_H_
