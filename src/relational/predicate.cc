#include "relational/predicate.h"

namespace secmed {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

PredicatePtr Predicate::True() {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kTrue;
  return p;
}

PredicatePtr Predicate::False() {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kFalse;
  return p;
}

PredicatePtr Predicate::Compare(Operand lhs, CompareOp op, Operand rhs) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kCompare;
  p->lhs_ = std::move(lhs);
  p->op_ = op;
  p->rhs_ = std::move(rhs);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr a, PredicatePtr b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  p->a_ = std::move(a);
  p->b_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr a, PredicatePtr b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  p->a_ = std::move(a);
  p->b_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr a) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->a_ = std::move(a);
  return p;
}

PredicatePtr Predicate::ColumnEquals(std::string column, Value v) {
  return Compare(Operand::Col(std::move(column)), CompareOp::kEq,
                 Operand::Lit(std::move(v)));
}

PredicatePtr Predicate::DisjunctionOf(std::vector<PredicatePtr> preds) {
  if (preds.empty()) return False();
  PredicatePtr acc = preds[0];
  for (size_t i = 1; i < preds.size(); ++i) {
    acc = Or(std::move(acc), std::move(preds[i]));
  }
  return acc;
}

namespace {
Result<Value> ResolveOperand(const Predicate::Operand& o, const Tuple& tuple,
                             const Schema& schema) {
  if (!o.is_column) return o.literal;
  SECMED_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(o.column));
  return tuple[idx];
}
}  // namespace

Result<bool> Predicate::Eval(const Tuple& tuple, const Schema& schema) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kCompare: {
      SECMED_ASSIGN_OR_RETURN(Value l, ResolveOperand(lhs_, tuple, schema));
      SECMED_ASSIGN_OR_RETURN(Value r, ResolveOperand(rhs_, tuple, schema));
      if (l.is_null() || r.is_null()) return false;  // SQL three-valued-ish
      int c = l.Compare(r);
      switch (op_) {
        case CompareOp::kEq: return c == 0;
        case CompareOp::kNe: return c != 0;
        case CompareOp::kLt: return c < 0;
        case CompareOp::kLe: return c <= 0;
        case CompareOp::kGt: return c > 0;
        case CompareOp::kGe: return c >= 0;
      }
      return Status::Internal("bad compare op");
    }
    case Kind::kAnd: {
      SECMED_ASSIGN_OR_RETURN(bool a, a_->Eval(tuple, schema));
      if (!a) return false;
      return b_->Eval(tuple, schema);
    }
    case Kind::kOr: {
      SECMED_ASSIGN_OR_RETURN(bool a, a_->Eval(tuple, schema));
      if (a) return true;
      return b_->Eval(tuple, schema);
    }
    case Kind::kNot: {
      SECMED_ASSIGN_OR_RETURN(bool a, a_->Eval(tuple, schema));
      return !a;
    }
  }
  return Status::Internal("bad predicate kind");
}

std::string Predicate::ToString() const {
  auto operand_str = [](const Operand& o) {
    return o.is_column ? o.column : o.literal.ToString();
  };
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kFalse:
      return "FALSE";
    case Kind::kCompare:
      return operand_str(lhs_) + " " + CompareOpToString(op_) + " " +
             operand_str(rhs_);
    case Kind::kAnd:
      return "(" + a_->ToString() + " AND " + b_->ToString() + ")";
    case Kind::kOr:
      return "(" + a_->ToString() + " OR " + b_->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + a_->ToString() + ")";
  }
  return "?";
}

}  // namespace secmed
