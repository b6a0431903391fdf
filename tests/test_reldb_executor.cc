// Executor tests: filters, index push-down, joins, projection, ordering,
// aggregation — including a property sweep checking the planned execution
// against brute-force evaluation, and a differential of the delta entry
// points against a nested-loop full-join oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/random.h"
#include "reldb/executor.h"
#include "sqlparse/parser.h"
#include "workload/canonical.h"
#include "workload/dblp_generator.h"

namespace hypre {
namespace reldb {
namespace {

ExprPtr Parse(const std::string& text) {
  auto r = sqlparse::ParsePredicate(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : nullptr;
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildDblpSampleDatabase(&db_).ok());
  }
  Database db_;
};

TEST_F(ExecutorTest, FullScanNoWhere) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 9u);
  EXPECT_EQ(r->column_names.size(), 4u);  // all columns
}

TEST_F(ExecutorTest, EqualityFilterUsesIndex) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  q.where = Parse("dblp.venue='PVLDB'");
  q.select = {"dblp.pid"};
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);  // t3, t4, t5
}

TEST_F(ExecutorTest, RangeFilter) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  q.where = Parse("year BETWEEN 2000 AND 2009");
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);  // t1(2000) t2(2006) t5(2009) t7(2008) t9(2007)
}

TEST_F(ExecutorTest, RangeFilterCorrectCount) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  q.where = Parse("year >= 2010");
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 4u);  // t3 t4 t6 t8
}

TEST_F(ExecutorTest, OrderByDescWithLimit) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  q.select = {"dblp.pid", "dblp.year"};
  q.order_by = "dblp.year";
  q.order_desc = true;
  q.limit = 2;
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 2010);
  EXPECT_EQ(r->rows[1][1].AsInt(), 2010);
}

TEST_F(ExecutorTest, Projection) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  q.select = {"venue"};
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column_names, std::vector<std::string>{"venue"});
  EXPECT_EQ(r->rows[0].size(), 1u);
}

TEST_F(ExecutorTest, UnknownColumnErrors) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  q.select = {"nope"};
  EXPECT_FALSE(exec.Execute(q).ok());
  Query q2;
  q2.from = "nope_table";
  EXPECT_FALSE(exec.Execute(q2).ok());
}

TEST_F(ExecutorTest, CountDistinct) {
  Executor exec(&db_);
  Query q;
  q.from = "dblp";
  auto r = exec.CountDistinct(q, "venue");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4u);  // VLDB, PVLDB, SIGMOD, INFOCOM
}

TEST_F(ExecutorTest, ToSqlRendering) {
  Query q;
  q.from = "dblp";
  q.where = Parse("dblp.venue='VLDB'");
  q.select = {"dblp.pid"};
  q.order_by = "dblp.year";
  q.order_desc = true;
  q.limit = 3;
  EXPECT_EQ(q.ToSql(),
            "SELECT dblp.pid FROM dblp WHERE dblp.venue='VLDB' "
            "ORDER BY dblp.year DESC LIMIT 3");
}

TEST(ExecutorJoinTest, HashJoinWithPushdown) {
  Database db;
  workload::DblpConfig config;
  config.num_papers = 500;
  config.num_authors = 200;
  config.num_venues = 8;
  config.num_communities = 5;
  config.seed = 7;
  auto stats = workload::GenerateDblp(config, &db);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  Executor exec(&db);
  Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  q.where = Parse("dblp.venue='SIGMOD'");

  // Join output count must equal the number of author links whose paper is a
  // SIGMOD paper — verified by brute force.
  auto result = exec.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Table* dblp = db.GetTable("dblp");
  const Table* dblp_author = db.GetTable("dblp_author");
  std::set<int64_t> sigmod_pids;
  for (const auto& row : dblp->rows()) {
    if (row[3].AsString() == "SIGMOD") sigmod_pids.insert(row[0].AsInt());
  }
  size_t expected = 0;
  for (const auto& row : dblp_author->rows()) {
    if (sigmod_pids.count(row[0].AsInt()) > 0) ++expected;
  }
  EXPECT_EQ(result->rows.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(ExecutorJoinTest, CountDistinctOverJoin) {
  Database db;
  workload::DblpConfig config;
  config.num_papers = 300;
  config.num_authors = 100;
  config.num_venues = 6;
  config.num_communities = 4;
  config.seed = 11;
  ASSERT_TRUE(workload::GenerateDblp(config, &db).ok());

  Executor exec(&db);
  Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  q.where = Parse("dblp_author.aid=1");
  auto count = exec.CountDistinct(q, "dblp.pid");
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  const Table* dblp_author = db.GetTable("dblp_author");
  std::set<int64_t> expected;
  for (const auto& row : dblp_author->rows()) {
    if (row[1].AsInt() == 1) expected.insert(row[0].AsInt());
  }
  EXPECT_EQ(count.value(), expected.size());
}

TEST(ExecutorJoinTest, SelfJoinRejected) {
  Database db;
  ASSERT_TRUE(workload::BuildDblpSampleDatabase(&db).ok());
  Executor exec(&db);
  Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp", "dblp.pid", "pid"});
  EXPECT_FALSE(exec.Execute(q).ok());
}

TEST_F(ExecutorTest, GroupByCountPerVenue) {
  Executor exec(&db_);
  GroupByQuery q;
  q.base.from = "dblp";
  q.group_by = {"dblp.venue"};
  q.aggregates = {{AggregateFunc::kCount, ""}};
  auto r = exec.ExecuteGroupBy(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sorted by venue: INFOCOM(2), PVLDB(3), SIGMOD(2), VLDB(2).
  ASSERT_EQ(r->rows.size(), 4u);
  EXPECT_EQ(r->column_names,
            (std::vector<std::string>{"dblp.venue", "count(*)"}));
  EXPECT_EQ(r->rows[0][0].AsString(), "INFOCOM");
  EXPECT_EQ(r->rows[0][1].AsInt(), 2);
  EXPECT_EQ(r->rows[1][0].AsString(), "PVLDB");
  EXPECT_EQ(r->rows[1][1].AsInt(), 3);
}

TEST_F(ExecutorTest, GroupByMinMaxAvgSum) {
  Executor exec(&db_);
  GroupByQuery q;
  q.base.from = "dblp";
  q.group_by = {"dblp.venue"};
  q.aggregates = {{AggregateFunc::kMin, "year"},
                  {AggregateFunc::kMax, "year"},
                  {AggregateFunc::kAvg, "year"},
                  {AggregateFunc::kSum, "year"}};
  auto r = exec.ExecuteGroupBy(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // PVLDB years: 2010, 2010, 2009.
  const Row& pvldb = r->rows[1];
  EXPECT_EQ(pvldb[1].AsInt(), 2009);
  EXPECT_EQ(pvldb[2].AsInt(), 2010);
  EXPECT_NEAR(pvldb[3].AsDouble(), (2010 + 2010 + 2009) / 3.0, 1e-9);
  EXPECT_NEAR(pvldb[4].AsDouble(), 2010 + 2010 + 2009, 1e-9);
}

TEST_F(ExecutorTest, GroupByGlobalGroupAndWhere) {
  Executor exec(&db_);
  GroupByQuery q;
  q.base.from = "dblp";
  q.base.where = Parse("year>=2010");
  q.aggregates = {{AggregateFunc::kCount, ""},
                  {AggregateFunc::kCountDistinct, "venue"}};
  auto r = exec.ExecuteGroupBy(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);  // single global group
  EXPECT_EQ(r->rows[0][0].AsInt(), 4);  // t3 t4 t6 t8
  EXPECT_EQ(r->rows[0][1].AsInt(), 3);  // PVLDB, SIGMOD, INFOCOM
}

TEST_F(ExecutorTest, GroupByValidation) {
  Executor exec(&db_);
  GroupByQuery q;
  q.base.from = "dblp";
  EXPECT_FALSE(exec.ExecuteGroupBy(q).ok());  // no aggregates
  q.aggregates = {{AggregateFunc::kSum, "venue"}};
  EXPECT_FALSE(exec.ExecuteGroupBy(q).ok());  // SUM over strings
  q.aggregates = {{AggregateFunc::kCount, ""}};
  q.group_by = {"nope"};
  EXPECT_FALSE(exec.ExecuteGroupBy(q).ok());  // unknown column
}

TEST(ExecutorGroupByJoinTest, AuthorsPerVenue) {
  // Grouped aggregation over a join — the §6.2-style extraction query
  // "papers per (author, venue)" expressed in the engine itself.
  reldb::Database db;
  workload::DblpConfig config;
  config.num_papers = 300;
  config.num_authors = 80;
  config.num_venues = 5;
  config.num_communities = 4;
  config.seed = 17;
  ASSERT_TRUE(workload::GenerateDblp(config, &db).ok());
  Executor exec(&db);
  GroupByQuery q;
  q.base.from = "dblp";
  q.base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  q.group_by = {"dblp.venue"};
  q.aggregates = {{AggregateFunc::kCountDistinct, "dblp_author.aid"}};
  auto r = exec.ExecuteGroupBy(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 5u);
  // Cross-check one venue by brute force.
  const std::string venue = r->rows[0][0].AsString();
  std::set<int64_t> authors;
  const Table* dblp = db.GetTable("dblp");
  const Table* links = db.GetTable("dblp_author");
  std::set<int64_t> venue_pids;
  for (const auto& row : dblp->rows()) {
    if (row[3].AsString() == venue) venue_pids.insert(row[0].AsInt());
  }
  for (const auto& row : links->rows()) {
    if (venue_pids.count(row[0].AsInt()) > 0) authors.insert(row[1].AsInt());
  }
  EXPECT_EQ(static_cast<size_t>(r->rows[0][1].AsInt()), authors.size());
}

// Property sweep: for a corpus of predicates over the sample database, the
// planned execution (push-down + index candidates) matches brute-force
// row-by-row evaluation.
class ExecutorEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ExecutorEquivalence, PlannedMatchesBruteForce) {
  Database db;
  ASSERT_TRUE(workload::BuildDblpSampleDatabase(&db).ok());
  Executor exec(&db);
  ExprPtr predicate = Parse(GetParam());
  ASSERT_NE(predicate, nullptr);

  Query q;
  q.from = "dblp";
  q.where = predicate;
  q.select = {"dblp.pid"};
  auto planned = exec.Execute(q);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();

  // Brute force through a map-backed accessor.
  class RowAcc : public RowAccessor {
   public:
    RowAcc(const Schema* schema, const Row* row) : schema_(schema), row_(row) {}
    Result<Value> Get(const std::string& table,
                      const std::string& column) const override {
      if (!table.empty() && table != "dblp") {
        return Status::NotFound("table " + table);
      }
      int idx = schema_->FindColumn(column);
      if (idx < 0) return Status::NotFound("col " + column);
      return (*row_)[static_cast<size_t>(idx)];
    }
   private:
    const Schema* schema_;
    const Row* row_;
  };
  const Table* dblp = db.GetTable("dblp");
  std::set<std::string> expected;
  for (const auto& row : dblp->rows()) {
    RowAcc acc(&dblp->schema(), &row);
    auto v = Evaluate(*predicate, acc);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    if (v.value()) expected.insert(row[0].AsString());
  }
  std::set<std::string> actual;
  for (const auto& row : planned->rows) actual.insert(row[0].AsString());
  EXPECT_EQ(actual, expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    PredicateCorpus, ExecutorEquivalence,
    ::testing::Values(
        "dblp.venue='VLDB'", "venue='PVLDB' AND year=2010",
        "venue='PVLDB' OR venue='SIGMOD'", "year BETWEEN 2006 AND 2009",
        "year>=2010", "year<2005", "year<=2000", "year>2012",
        "NOT (venue='INFOCOM')", "venue IN ('VLDB', 'PVLDB')",
        "(venue='VLDB' AND year>=2005) OR (venue='SIGMOD' AND year<2009)",
        "venue!='SIGMOD'", "pid='t1'", "year=2010 AND venue!='PVLDB'"));

// --- Delta entry points vs a full-join oracle ------------------------------
//
// ForEachMatchOfRow and ForEachAppendedMatch start their join walk from the
// delta rows and reach every other slot through the join tree. The oracle
// below knows nothing of that: it joins every visible row of every slot by
// nested loops, in the pre-delete or post-append state, and keeps the
// tuples that contain the delta rows.

/// RowAccessor over one tuple of an oracle join (qualified columns only).
class OracleTupleAccessor : public RowAccessor {
 public:
  OracleTupleAccessor(const std::vector<const Table*>* tables,
                      const std::vector<RowId>* rows)
      : tables_(tables), rows_(rows) {}

  Result<Value> Get(const std::string& table,
                    const std::string& column) const override {
    for (size_t s = 0; s < tables_->size(); ++s) {
      const Table* t = (*tables_)[s];
      if (t->name() != table) continue;
      int col = t->schema().FindColumn(column);
      if (col < 0) return Status::NotFound("no column " + column);
      return t->row((*rows_)[s])[static_cast<size_t>(col)];
    }
    return Status::NotFound("no table " + table);
  }

 private:
  const std::vector<const Table*>* tables_;
  const std::vector<RowId>* rows_;
};

/// Full join of `query` over the rows `visible(slot, row)` admits: every
/// combination of visible rows, kept when each JOIN's columns are equal and
/// non-NULL and the WHERE clause holds. Calls `fn(tables, rows)` per tuple.
void OracleJoin(
    const Database& db, const Query& query,
    const std::function<bool(size_t, RowId)>& visible,
    const std::function<void(const std::vector<const Table*>&,
                             const std::vector<RowId>&)>& fn) {
  std::vector<const Table*> tables{db.GetTable(query.from)};
  struct Edge {
    size_t left, left_col, right_col;
  };
  std::vector<Edge> edges;
  for (const JoinSpec& join : query.joins) {
    auto [left_table, left_column] = SplitQualifiedName(join.left_column);
    size_t left = 0;
    while (tables[left]->name() != left_table) ++left;
    const Table* right = db.GetTable(join.right_table);
    edges.push_back(
        {left,
         static_cast<size_t>(tables[left]->schema().FindColumn(left_column)),
         static_cast<size_t>(right->schema().FindColumn(join.right_column))});
    tables.push_back(right);
  }
  std::vector<RowId> rows(tables.size());
  std::function<void(size_t)> bind = [&](size_t s) {
    if (s == tables.size()) {
      if (query.where) {
        OracleTupleAccessor accessor(&tables, &rows);
        auto held = Evaluate(*query.where, accessor);
        ASSERT_TRUE(held.ok()) << held.status().ToString();
        if (!*held) return;
      }
      fn(tables, rows);
      return;
    }
    for (RowId r = 0; r < tables[s]->num_rows(); ++r) {
      if (!visible(s, r)) continue;
      if (s > 0) {
        const Edge& e = edges[s - 1];
        const Value& left = tables[e.left]->row(rows[e.left])[e.left_col];
        const Value& right = tables[s]->row(r)[e.right_col];
        if (left.is_null() || right.is_null() || !(left == right)) continue;
      }
      rows[s] = r;
      bind(s + 1);
    }
  };
  bind(0);
}

/// Query shapes over tables a(id, k, m), b(k, ck, v), c(ck, m, w).
enum class JoinShape { kChain2, kChain3, kStar };

class DeltaDifferential {
 public:
  DeltaDifferential(JoinShape shape, uint64_t seed) : rng_(seed) {
    auto make = [&](const char* name, std::vector<const char*> cols) {
      std::vector<Column> columns;
      for (const char* c : cols) columns.push_back({c, ValueType::kInt64});
      auto t = db_.CreateTable(name, Schema(columns));
      EXPECT_TRUE(t.ok());
      return *t;
    };
    a_ = make("a", {"id", "k", "m"});
    b_ = make("b", {"k", "ck", "v"});
    c_ = make("c", {"ck", "m", "w"});
    for (int i = 0; i < 10; ++i) AppendRow(a_);
    for (int i = 0; i < 14; ++i) AppendRow(b_);
    for (int i = 0; i < 10; ++i) AppendRow(c_);
    // Each join column is indexed or not at random, so both the index walk
    // and the hash-build fallback run.
    for (auto [table, column] :
         std::vector<std::pair<Table*, const char*>>{{a_, "k"},
                                                     {a_, "m"},
                                                     {b_, "k"},
                                                     {b_, "ck"},
                                                     {c_, "ck"},
                                                     {c_, "m"}}) {
      if (rng_.NextBernoulli(0.6)) {
        EXPECT_TRUE(table->CreateHashIndex(column).ok());
      }
    }

    query_.from = "a";
    query_.joins.push_back({"b", "a.k", "k"});
    if (shape == JoinShape::kChain3) {
      query_.joins.push_back({"c", "b.ck", "ck"});
    } else if (shape == JoinShape::kStar) {
      query_.joins.push_back({"c", "a.m", "m"});
    }
    tables_ = {a_, b_};
    if (shape != JoinShape::kChain2) tables_.push_back(c_);

    std::vector<std::string> wheres{"", "b.v >= 2", "a.k = 1", "a.id <> b.v"};
    std::vector<std::string> keys{"a.id", "b.v"};
    std::vector<std::string> predicate_sql{"a.m = 2", "b.v > 1"};
    if (shape != JoinShape::kChain2) {
      wheres.push_back("c.w < 3 AND a.m <> 0");
      keys.push_back("c.w");
      predicate_sql.push_back("c.w = 0");
    }
    const std::string& where = wheres[rng_.NextBounded(wheres.size())];
    if (!where.empty()) query_.where = Parse(where);
    key_column_ = keys[rng_.NextBounded(keys.size())];
    for (const auto& sql : predicate_sql) predicates_.push_back(Parse(sql));
  }

  std::string Describe() const {
    return query_.ToSql() + " key=" + key_column_;
  }

  /// Deletes a few rows from two joined tables in one slice, then checks
  /// ForEachMatchOfRow for every deleted row against the oracle's
  /// pre-delete join.
  void CheckDeleteSlice() {
    std::unordered_map<std::string, std::vector<RowId>> slice;
    size_t first = rng_.NextBounded(tables_.size());
    size_t second = (first + 1 + rng_.NextBounded(tables_.size() - 1)) %
                    tables_.size();
    for (size_t s : {first, second}) {
      size_t n = 1 + rng_.NextBounded(2);
      for (size_t i = 0; i < n; ++i) {
        Table* t = tables_[s];
        RowId row = rng_.NextBounded(t->num_rows());
        if (t->is_deleted(row)) continue;
        ASSERT_TRUE(t->Delete(row).ok());
        slice[t->name()].push_back(row);
      }
    }
    auto in_slice = [&](const Table* t, RowId row) {
      auto it = slice.find(t->name());
      return it != slice.end() && std::find(it->second.begin(),
                                            it->second.end(),
                                            row) != it->second.end();
    };
    Executor exec(&db_);
    for (const auto& [table_name, rows] : slice) {
      for (RowId row : rows) {
        SCOPED_TRACE(testing::Message() << "deleted " << table_name << "#"
                                        << row);
        std::set<Value> got;
        ASSERT_TRUE(exec.ForEachMatchOfRow(query_, key_column_, table_name,
                                           row, slice,
                                           [&](const Value& key) {
                                             got.insert(key);
                                           })
                        .ok());
        std::set<Value> want;
        OracleJoin(
            db_, query_,
            [&](size_t s, RowId r) {
              const Table* t = tables_[s];
              if (t->name() == table_name) return r == row;
              return !t->is_deleted(r) || in_slice(t, r);
            },
            [&](const std::vector<const Table*>& tables,
                const std::vector<RowId>& rows) {
              want.insert(KeyOf(tables, rows));
            });
        EXPECT_EQ(got, want);
      }
    }
  }

  /// Appends rows to several slots, then checks ForEachAppendedMatch's key
  /// and (predicate, key) sets against the oracle's post-append join.
  void CheckAppendSlice() {
    std::unordered_map<std::string, RowId> first_new_row;
    for (Table* t : {a_, b_, c_}) {
      size_t n = rng_.NextBounded(4);
      if (n == 0) continue;
      first_new_row[t->name()] = t->num_rows();
      for (size_t i = 0; i < n; ++i) AppendRow(t);
    }
    Executor exec(&db_);
    std::set<Value> got_keys;
    std::set<std::pair<size_t, Value>> got_holds;
    ASSERT_TRUE(exec.ForEachAppendedMatch(
                        query_, key_column_, first_new_row, predicates_,
                        [&](const Value& key) { got_keys.insert(key); },
                        [&](size_t p, const Value& key) {
                          got_holds.emplace(p, key);
                        })
                    .ok());
    std::set<Value> want_keys;
    std::set<std::pair<size_t, Value>> want_holds;
    OracleJoin(
        db_, query_,
        [&](size_t s, RowId r) { return !tables_[s]->is_deleted(r); },
        [&](const std::vector<const Table*>& tables,
            const std::vector<RowId>& rows) {
          bool is_new = false;
          for (size_t s = 0; s < tables.size(); ++s) {
            auto it = first_new_row.find(tables[s]->name());
            if (it != first_new_row.end() && rows[s] >= it->second) {
              is_new = true;
            }
          }
          if (!is_new) return;
          Value key = KeyOf(tables, rows);
          want_keys.insert(key);
          OracleTupleAccessor accessor(&tables, &rows);
          for (size_t p = 0; p < predicates_.size(); ++p) {
            auto held = Evaluate(*predicates_[p], accessor);
            ASSERT_TRUE(held.ok()) << held.status().ToString();
            if (*held) want_holds.emplace(p, key);
          }
        });
    EXPECT_EQ(got_keys, want_keys);
    EXPECT_EQ(got_holds, want_holds);
  }

 private:
  /// Small domains so joins fan out; join columns are NULL ~15% of the time.
  void AppendRow(Table* t) {
    auto join_value = [&] {
      return rng_.NextBernoulli(0.15) ? Value::Null()
                                      : Value::Int(rng_.NextInt(0, 4));
    };
    Value payload = Value::Int(rng_.NextInt(0, 4));
    if (t == a_) {
      t->AppendUnchecked(
          Row{Value::Int(next_id_++), join_value(), join_value()});
    } else {
      t->AppendUnchecked(Row{join_value(), join_value(), payload});
    }
  }

  Value KeyOf(const std::vector<const Table*>& tables,
              const std::vector<RowId>& rows) const {
    OracleTupleAccessor accessor(&tables, &rows);
    auto [table, column] = SplitQualifiedName(key_column_);
    return accessor.Get(table, column).value();
  }

  Database db_;
  Table* a_ = nullptr;
  Table* b_ = nullptr;
  Table* c_ = nullptr;
  std::vector<Table*> tables_;  // the query's slots, in slot order
  Query query_;
  std::string key_column_;
  std::vector<ExprPtr> predicates_;
  int64_t next_id_ = 0;
  Rng rng_;
};

void RunDeltaDifferential(JoinShape shape) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    DeltaDifferential d(shape, seed);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " " << d.Describe());
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(testing::Message() << "round=" << round);
      d.CheckAppendSlice();
      d.CheckDeleteSlice();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ExecutorDeltaDifferential, TwoTableChain) {
  RunDeltaDifferential(JoinShape::kChain2);
}

TEST(ExecutorDeltaDifferential, ThreeTableChain) {
  RunDeltaDifferential(JoinShape::kChain3);
}

TEST(ExecutorDeltaDifferential, Star) {
  RunDeltaDifferential(JoinShape::kStar);
}

}  // namespace
}  // namespace reldb
}  // namespace hypre
