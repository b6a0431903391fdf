#include "reldb/expr.h"

#include <algorithm>
#include <cmath>

namespace hypre {
namespace reldb {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string ColumnRefExpr::QualifiedName() const {
  if (table_.empty()) return column_;
  return table_ + "." + column_;
}

std::string CompareExpr::ToString() const {
  return lhs_->ToString() + CompareOpToString(op_) + rhs_->ToString();
}

std::string BetweenExpr::ToString() const {
  return column_->ToString() + " BETWEEN " + lo_.ToString() + " AND " +
         hi_.ToString();
}

InListExpr::InListExpr(ExprPtr column, std::vector<Value> values)
    : Expr(ExprKind::kInList),
      column_(std::move(column)),
      values_(std::move(values)) {
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) continue;
    has_numeric_ = has_numeric_ || values_[i].is_numeric();
    has_nan_ = has_nan_ || (values_[i].is_numeric() &&
                            std::isnan(values_[i].NumericValue()));
    by_hash_.emplace_back(values_[i].Hash(), i);
  }
  std::sort(by_hash_.begin(), by_hash_.end());
}

bool InListExpr::Contains(const Value& v) const {
  if (v.is_null()) return false;
  // Compare finds a NaN equal to every number, and no hash can say so.
  if (v.is_numeric() && (has_nan_ || std::isnan(v.NumericValue()))) {
    return has_numeric_;
  }
  const size_t hash = v.Hash();
  auto it = std::lower_bound(by_hash_.begin(), by_hash_.end(),
                             std::pair<size_t, size_t>(hash, 0));
  for (; it != by_hash_.end() && it->first == hash; ++it) {
    if (values_[it->second].Compare(v) == 0) return true;
  }
  return false;
}

std::string InListExpr::ToString() const {
  std::string out = column_->ToString() + " IN (";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

std::string NaryExpr::ToString() const {
  const char* sep = kind() == ExprKind::kAnd ? " AND " : " OR ";
  std::string out;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += sep;
    const Expr& c = *children_[i];
    bool needs_parens = c.kind() == ExprKind::kAnd || c.kind() == ExprKind::kOr;
    if (needs_parens) out += "(";
    out += c.ToString();
    if (needs_parens) out += ")";
  }
  return out;
}

ExprPtr Col(std::string table, std::string column) {
  return std::make_shared<ColumnRefExpr>(std::move(table), std::move(column));
}

ExprPtr Col(std::string column) {
  return std::make_shared<ColumnRefExpr>("", std::move(column));
}

ExprPtr Lit(Value value) { return std::make_shared<LiteralExpr>(std::move(value)); }

ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CompareOp::kEq, std::move(lhs), std::move(rhs));
}

ExprPtr Between(ExprPtr column, Value lo, Value hi) {
  return std::make_shared<BetweenExpr>(std::move(column), std::move(lo),
                                       std::move(hi));
}

ExprPtr In(ExprPtr column, std::vector<Value> values) {
  return std::make_shared<InListExpr>(std::move(column), std::move(values));
}

ExprPtr MakeAnd(std::vector<ExprPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<NaryExpr>(ExprKind::kAnd, std::move(children));
}

ExprPtr MakeOr(std::vector<ExprPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<NaryExpr>(ExprKind::kOr, std::move(children));
}

ExprPtr MakeAnd(ExprPtr a, ExprPtr b) {
  return MakeAnd(std::vector<ExprPtr>{std::move(a), std::move(b)});
}

ExprPtr MakeOr(ExprPtr a, ExprPtr b) {
  return MakeOr(std::vector<ExprPtr>{std::move(a), std::move(b)});
}

ExprPtr MakeNot(ExprPtr child) {
  return std::make_shared<NotExpr>(std::move(child));
}

namespace {

Result<Value> EvaluateScalar(const Expr& expr, const RowAccessor& row) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      const auto& col = static_cast<const ColumnRefExpr&>(expr);
      return row.Get(col.table(), col.column());
    }
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value();
    default:
      return Status::InvalidArgument("expected a scalar expression, got: " +
                                     expr.ToString());
  }
}

bool ApplyCompare(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  int c = a.Compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

}  // namespace

Result<bool> Evaluate(const Expr& expr, const RowAccessor& row) {
  switch (expr.kind()) {
    case ExprKind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      HYPRE_ASSIGN_OR_RETURN(Value a, EvaluateScalar(*cmp.lhs(), row));
      HYPRE_ASSIGN_OR_RETURN(Value b, EvaluateScalar(*cmp.rhs(), row));
      return ApplyCompare(cmp.op(), a, b);
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      HYPRE_ASSIGN_OR_RETURN(Value v, EvaluateScalar(*bt.column(), row));
      return ApplyCompare(CompareOp::kGe, v, bt.lo()) &&
             ApplyCompare(CompareOp::kLe, v, bt.hi());
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      HYPRE_ASSIGN_OR_RETURN(Value v, EvaluateScalar(*in.column(), row));
      return in.Contains(v);
    }
    case ExprKind::kAnd: {
      const auto& nary = static_cast<const NaryExpr&>(expr);
      for (const auto& child : nary.children()) {
        HYPRE_ASSIGN_OR_RETURN(bool v, Evaluate(*child, row));
        if (!v) return false;
      }
      return true;
    }
    case ExprKind::kOr: {
      const auto& nary = static_cast<const NaryExpr&>(expr);
      for (const auto& child : nary.children()) {
        HYPRE_ASSIGN_OR_RETURN(bool v, Evaluate(*child, row));
        if (v) return true;
      }
      return false;
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(expr);
      HYPRE_ASSIGN_OR_RETURN(bool v, Evaluate(*n.child(), row));
      return !v;
    }
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
      return Status::InvalidArgument("expression is not a predicate: " +
                                     expr.ToString());
  }
  return Status::Internal("unreachable expression kind");
}

void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kAnd) {
    const auto& nary = static_cast<const NaryExpr&>(*expr);
    for (const auto& child : nary.children()) CollectConjuncts(child, out);
  } else {
    out->push_back(expr);
  }
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ExprKind::kColumnRef: {
      const auto& ca = static_cast<const ColumnRefExpr&>(a);
      const auto& cb = static_cast<const ColumnRefExpr&>(b);
      return ca.table() == cb.table() && ca.column() == cb.column();
    }
    case ExprKind::kLiteral: {
      const auto& la = static_cast<const LiteralExpr&>(a);
      const auto& lb = static_cast<const LiteralExpr&>(b);
      if (la.value().is_null() && lb.value().is_null()) return true;
      if (la.value().is_null() || lb.value().is_null()) return false;
      return la.value().Compare(lb.value()) == 0;
    }
    case ExprKind::kCompare: {
      const auto& ca = static_cast<const CompareExpr&>(a);
      const auto& cb = static_cast<const CompareExpr&>(b);
      return ca.op() == cb.op() && ExprEquals(*ca.lhs(), *cb.lhs()) &&
             ExprEquals(*ca.rhs(), *cb.rhs());
    }
    case ExprKind::kBetween: {
      const auto& ba = static_cast<const BetweenExpr&>(a);
      const auto& bb = static_cast<const BetweenExpr&>(b);
      return ExprEquals(*ba.column(), *bb.column()) &&
             ba.lo().Compare(bb.lo()) == 0 && ba.hi().Compare(bb.hi()) == 0;
    }
    case ExprKind::kInList: {
      const auto& ia = static_cast<const InListExpr&>(a);
      const auto& ib = static_cast<const InListExpr&>(b);
      if (!ExprEquals(*ia.column(), *ib.column())) return false;
      if (ia.values().size() != ib.values().size()) return false;
      for (size_t i = 0; i < ia.values().size(); ++i) {
        if (ia.values()[i].Compare(ib.values()[i]) != 0) return false;
      }
      return true;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& na = static_cast<const NaryExpr&>(a);
      const auto& nb = static_cast<const NaryExpr&>(b);
      if (na.children().size() != nb.children().size()) return false;
      for (size_t i = 0; i < na.children().size(); ++i) {
        if (!ExprEquals(*na.children()[i], *nb.children()[i])) return false;
      }
      return true;
    }
    case ExprKind::kNot: {
      const auto& na = static_cast<const NotExpr&>(a);
      const auto& nb = static_cast<const NotExpr&>(b);
      return ExprEquals(*na.child(), *nb.child());
    }
  }
  return false;
}

}  // namespace reldb
}  // namespace hypre
