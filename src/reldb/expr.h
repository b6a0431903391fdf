// Predicate expression AST: the representation of SQL WHERE clauses.
//
// HYPRE stores every preference as a predicate string; the parser in
// src/sqlparse turns those strings into this AST, the HYPRE combination
// algorithms compose ASTs with AND/OR, and the executor evaluates them.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "reldb/value.h"

namespace hypre {
namespace reldb {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kCompare,
  kBetween,
  kInList,
  kAnd,
  kOr,
  kNot,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// \brief Source of column values during evaluation; implemented by the
/// executor over (possibly joined) rows.
class RowAccessor {
 public:
  virtual ~RowAccessor() = default;
  /// \brief Value of `table`.`column` in the current row. `table` may be
  /// empty for unqualified references (resolved if unambiguous).
  virtual Result<Value> Get(const std::string& table,
                            const std::string& column) const = 0;
};

/// \brief Immutable predicate AST node.
class Expr {
 public:
  virtual ~Expr() = default;
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind() const { return kind_; }

  /// \brief SQL rendering, parse-compatible with sqlparse.
  virtual std::string ToString() const = 0;

  /// \brief Adds every referenced table name (possibly "") to `out`.
  virtual void CollectTables(std::set<std::string>* out) const = 0;

 private:
  ExprKind kind_;
};

/// \brief Reference to `table`.`column` (table part may be empty).
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string table, std::string column)
      : Expr(ExprKind::kColumnRef),
        table_(std::move(table)),
        column_(std::move(column)) {}

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }

  /// \brief "table.column" or "column".
  std::string QualifiedName() const;

  std::string ToString() const override { return QualifiedName(); }
  void CollectTables(std::set<std::string>* out) const override {
    out->insert(table_);
  }

 private:
  std::string table_;
  std::string column_;
};

/// \brief Constant value.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  std::string ToString() const override { return value_.ToString(); }
  void CollectTables(std::set<std::string>*) const override {}

 private:
  Value value_;
};

/// \brief Binary comparison `lhs op rhs`.
class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kCompare),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  CompareOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  std::string ToString() const override;
  void CollectTables(std::set<std::string>* out) const override {
    lhs_->CollectTables(out);
    rhs_->CollectTables(out);
  }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// \brief `col BETWEEN lo AND hi` (inclusive both ends, as in SQL).
class BetweenExpr : public Expr {
 public:
  BetweenExpr(ExprPtr column, Value lo, Value hi)
      : Expr(ExprKind::kBetween),
        column_(std::move(column)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}

  const ExprPtr& column() const { return column_; }
  const Value& lo() const { return lo_; }
  const Value& hi() const { return hi_; }

  std::string ToString() const override;
  void CollectTables(std::set<std::string>* out) const override {
    column_->CollectTables(out);
  }

 private:
  ExprPtr column_;
  Value lo_;
  Value hi_;
};

/// \brief `col IN (v1, v2, ...)`. The values are indexed by Value::Hash
/// once, at construction, so a membership test is a hash and a binary
/// search instead of a scan of the list.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr column, std::vector<Value> values);

  const ExprPtr& column() const { return column_; }
  const std::vector<Value>& values() const { return values_; }

  /// \brief True when `v` equals a listed value under Value::Compare (NULL
  /// equals nothing), exactly as a scan of values() would answer.
  bool Contains(const Value& v) const;

  std::string ToString() const override;
  void CollectTables(std::set<std::string>* out) const override {
    column_->CollectTables(out);
  }

 private:
  ExprPtr column_;
  std::vector<Value> values_;
  // (Value::Hash, index) of every non-NULL value, sorted. Equal values all
  // stay: Compare is not transitive across int64 and double.
  std::vector<std::pair<size_t, size_t>> by_hash_;
  bool has_numeric_ = false;
  bool has_nan_ = false;
};

/// \brief N-ary conjunction / disjunction.
class NaryExpr : public Expr {
 public:
  NaryExpr(ExprKind kind, std::vector<ExprPtr> children)
      : Expr(kind), children_(std::move(children)) {}

  const std::vector<ExprPtr>& children() const { return children_; }

  std::string ToString() const override;
  void CollectTables(std::set<std::string>* out) const override {
    for (const auto& c : children_) c->CollectTables(out);
  }

 private:
  std::vector<ExprPtr> children_;
};

/// \brief Logical negation.
class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child)
      : Expr(ExprKind::kNot), child_(std::move(child)) {}

  const ExprPtr& child() const { return child_; }

  std::string ToString() const override {
    return "NOT (" + child_->ToString() + ")";
  }
  void CollectTables(std::set<std::string>* out) const override {
    child_->CollectTables(out);
  }

 private:
  ExprPtr child_;
};

// --- Factory helpers ------------------------------------------------------

ExprPtr Col(std::string table, std::string column);
ExprPtr Col(std::string column);
ExprPtr Lit(Value value);
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Between(ExprPtr column, Value lo, Value hi);
ExprPtr In(ExprPtr column, std::vector<Value> values);
ExprPtr MakeAnd(std::vector<ExprPtr> children);
ExprPtr MakeOr(std::vector<ExprPtr> children);
ExprPtr MakeAnd(ExprPtr a, ExprPtr b);
ExprPtr MakeOr(ExprPtr a, ExprPtr b);
ExprPtr MakeNot(ExprPtr child);

/// \brief Evaluates a predicate against a row. Comparisons involving NULL
/// evaluate to false (SQL's unknown treated as not-matching).
Result<bool> Evaluate(const Expr& expr, const RowAccessor& row);

/// \brief Flattens nested ANDs into top-level conjuncts (a single non-AND
/// expression yields itself).
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// \brief Structural equality of two expression trees.
bool ExprEquals(const Expr& a, const Expr& b);

}  // namespace reldb
}  // namespace hypre
