// Unit tests for the predicate AST: evaluation, printing, equality.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "reldb/expr.h"

namespace hypre {
namespace reldb {
namespace {

// A row accessor over a flat map of "table.column" -> Value.
class MapRow : public RowAccessor {
 public:
  explicit MapRow(std::map<std::string, Value> values)
      : values_(std::move(values)) {}

  Result<Value> Get(const std::string& table,
                    const std::string& column) const override {
    std::string key = table.empty() ? column : table + "." + column;
    auto it = values_.find(key);
    if (it == values_.end()) return Status::NotFound("no column " + key);
    return it->second;
  }

 private:
  std::map<std::string, Value> values_;
};

bool Eval(const ExprPtr& e, const MapRow& row) {
  auto r = Evaluate(*e, row);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && r.value();
}

TEST(ExprTest, Comparisons) {
  MapRow row({{"t.x", Value::Int(5)}, {"t.s", Value::Str("VLDB")}});
  EXPECT_TRUE(Eval(Eq(Col("t", "x"), Lit(Value::Int(5))), row));
  EXPECT_FALSE(Eval(Eq(Col("t", "x"), Lit(Value::Int(6))), row));
  EXPECT_TRUE(Eval(Cmp(CompareOp::kNe, Col("t", "x"), Lit(Value::Int(6))), row));
  EXPECT_TRUE(Eval(Cmp(CompareOp::kLt, Col("t", "x"), Lit(Value::Int(6))), row));
  EXPECT_TRUE(Eval(Cmp(CompareOp::kLe, Col("t", "x"), Lit(Value::Int(5))), row));
  EXPECT_TRUE(Eval(Cmp(CompareOp::kGt, Col("t", "x"), Lit(Value::Int(4))), row));
  EXPECT_TRUE(Eval(Cmp(CompareOp::kGe, Col("t", "x"), Lit(Value::Int(5))), row));
  EXPECT_TRUE(Eval(Eq(Col("t", "s"), Lit(Value::Str("VLDB"))), row));
}

TEST(ExprTest, MirroredComparison) {
  MapRow row({{"t.x", Value::Int(5)}});
  // literal op column
  EXPECT_TRUE(Eval(Cmp(CompareOp::kLt, Lit(Value::Int(4)), Col("t", "x")), row));
}

TEST(ExprTest, NullNeverMatches) {
  MapRow row({{"t.x", Value::Null()}});
  EXPECT_FALSE(Eval(Eq(Col("t", "x"), Lit(Value::Int(5))), row));
  EXPECT_FALSE(Eval(Cmp(CompareOp::kNe, Col("t", "x"), Lit(Value::Int(5))), row));
  EXPECT_FALSE(Eval(Between(Col("t", "x"), Value::Int(0), Value::Int(9)), row));
  EXPECT_FALSE(Eval(In(Col("t", "x"), {Value::Int(5)}), row));
}

TEST(ExprTest, BetweenInclusive) {
  MapRow row({{"t.x", Value::Int(5)}});
  EXPECT_TRUE(Eval(Between(Col("t", "x"), Value::Int(5), Value::Int(9)), row));
  EXPECT_TRUE(Eval(Between(Col("t", "x"), Value::Int(0), Value::Int(5)), row));
  EXPECT_FALSE(Eval(Between(Col("t", "x"), Value::Int(6), Value::Int(9)), row));
}

TEST(ExprTest, InList) {
  MapRow row({{"t.make", Value::Str("BMW")}});
  EXPECT_TRUE(Eval(In(Col("t", "make"), {Value::Str("BMW"), Value::Str("Honda")}),
                   row));
  EXPECT_FALSE(Eval(In(Col("t", "make"), {Value::Str("VW")}), row));
}

// The linear scan Evaluate ran before IN lists were hashed: NULL equals
// nothing, anything else is equal when Value::Compare says 0.
bool ScanInList(const Value& v, const std::vector<Value>& list) {
  for (const Value& candidate : list) {
    if (!v.is_null() && !candidate.is_null() && v.Compare(candidate) == 0) {
      return true;
    }
  }
  return false;
}

TEST(ExprTest, InListAnswersAsTheLinearScan) {
  // Ints, doubles equal to ints (3 vs 3.0), +-0, int64s that round to the
  // same double (Compare is exact between int64s but not against a
  // double), strings, NULLs and NaN; lists are drawn with duplicates.
  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> pool = {
      Value::Int(3),         Value::Real(3.0),       Value::Int(-1),
      Value::Real(-1.0),     Value::Real(2.5),       Value::Int(0),
      Value::Real(0.0),      Value::Real(-0.0),      Value::Int(big),
      Value::Int(big + 1),   Value::Real(static_cast<double>(big)), Value::Int(7),
      Value::Str("3"),       Value::Str("VLDB"),     Value::Str(""),
      Value::Null(),         Value::Real(std::nan(""))};
  Rng rng(20240611);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<Value> list;
    for (size_t n = rng.NextBounded(9); n > 0; --n) {
      list.push_back(pool[rng.NextBounded(pool.size())]);
    }
    ExprPtr in = In(Col("t", "x"), list);
    const auto& in_list = static_cast<const InListExpr&>(*in);
    // values() and the SQL text keep the list exactly as given.
    ASSERT_EQ(in_list.values().size(), list.size());
    std::string sql = "t.x IN (";
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += list[i].ToString();
      EXPECT_EQ(in_list.values()[i].ToString(), list[i].ToString());
    }
    EXPECT_EQ(in->ToString(), sql + ")");
    for (const Value& v : pool) {
      const bool want = ScanInList(v, list);
      EXPECT_EQ(in_list.Contains(v), want)
          << v.ToString() << " in " << in->ToString();
      EXPECT_EQ(Eval(in, MapRow({{"t.x", v}})), want)
          << v.ToString() << " in " << in->ToString();
    }
  }
}

TEST(ExprTest, AndOrNot) {
  MapRow row({{"t.x", Value::Int(5)}, {"t.y", Value::Int(7)}});
  ExprPtr x5 = Eq(Col("t", "x"), Lit(Value::Int(5)));
  ExprPtr y9 = Eq(Col("t", "y"), Lit(Value::Int(9)));
  EXPECT_FALSE(Eval(MakeAnd(x5, y9), row));
  EXPECT_TRUE(Eval(MakeOr(x5, y9), row));
  EXPECT_TRUE(Eval(MakeNot(y9), row));
  EXPECT_FALSE(Eval(MakeNot(x5), row));
}

TEST(ExprTest, ScalarAsPredicateFails) {
  MapRow row({{"t.x", Value::Int(5)}});
  EXPECT_FALSE(Evaluate(*Col("t", "x"), row).ok());
  EXPECT_FALSE(Evaluate(*Lit(Value::Int(1)), row).ok());
}

TEST(ExprTest, MissingColumnPropagatesError) {
  MapRow row({});
  EXPECT_FALSE(Evaluate(*Eq(Col("t", "x"), Lit(Value::Int(5))), row).ok());
}

TEST(ExprTest, ToStringFormats) {
  EXPECT_EQ(Eq(Col("dblp", "venue"), Lit(Value::Str("VLDB")))->ToString(),
            "dblp.venue='VLDB'");
  EXPECT_EQ(Between(Col("price"), Value::Int(7000), Value::Int(16000))
                ->ToString(),
            "price BETWEEN 7000 AND 16000");
  EXPECT_EQ(In(Col("make"), {Value::Str("BMW"), Value::Str("Honda")})
                ->ToString(),
            "make IN ('BMW', 'Honda')");
  ExprPtr x = Eq(Col("a"), Lit(Value::Int(1)));
  ExprPtr y = Eq(Col("b"), Lit(Value::Int(2)));
  ExprPtr z = Eq(Col("c"), Lit(Value::Int(3)));
  EXPECT_EQ(MakeAnd(MakeOr(x, y), z)->ToString(), "(a=1 OR b=2) AND c=3");
  EXPECT_EQ(MakeNot(x)->ToString(), "NOT (a=1)");
}

TEST(ExprTest, CollectConjunctsFlattensNestedAnds) {
  ExprPtr x = Eq(Col("a"), Lit(Value::Int(1)));
  ExprPtr y = Eq(Col("b"), Lit(Value::Int(2)));
  ExprPtr z = Eq(Col("c"), Lit(Value::Int(3)));
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(MakeAnd(MakeAnd(x, y), z), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  conjuncts.clear();
  // OR is a leaf for conjunct purposes.
  CollectConjuncts(MakeOr(x, y), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 1u);
}

TEST(ExprTest, CollectTables) {
  ExprPtr e = MakeAnd(Eq(Col("dblp", "venue"), Lit(Value::Str("V"))),
                      Eq(Col("dblp_author", "aid"), Lit(Value::Int(1))));
  std::set<std::string> tables;
  e->CollectTables(&tables);
  EXPECT_EQ(tables.size(), 2u);
  EXPECT_TRUE(tables.count("dblp") > 0);
  EXPECT_TRUE(tables.count("dblp_author") > 0);
}

TEST(ExprTest, StructuralEquality) {
  ExprPtr a = Eq(Col("t", "x"), Lit(Value::Int(1)));
  ExprPtr b = Eq(Col("t", "x"), Lit(Value::Int(1)));
  ExprPtr c = Eq(Col("t", "x"), Lit(Value::Int(2)));
  EXPECT_TRUE(ExprEquals(*a, *b));
  EXPECT_FALSE(ExprEquals(*a, *c));
  EXPECT_TRUE(ExprEquals(*MakeAnd(a, b), *MakeAnd(a, b)));
  EXPECT_FALSE(ExprEquals(*MakeAnd(a, b), *MakeOr(a, b)));
  EXPECT_TRUE(ExprEquals(*Between(Col("x"), Value::Int(1), Value::Int(2)),
                         *Between(Col("x"), Value::Int(1), Value::Int(2))));
  EXPECT_FALSE(ExprEquals(*Between(Col("x"), Value::Int(1), Value::Int(2)),
                          *Between(Col("x"), Value::Int(1), Value::Int(3))));
  EXPECT_TRUE(ExprEquals(*In(Col("x"), {Value::Int(1)}),
                         *In(Col("x"), {Value::Int(1)})));
  EXPECT_FALSE(ExprEquals(*In(Col("x"), {Value::Int(1)}),
                          *In(Col("x"), {Value::Int(1), Value::Int(2)})));
  EXPECT_TRUE(ExprEquals(*MakeNot(a), *MakeNot(b)));
}

}  // namespace
}  // namespace reldb
}  // namespace hypre
