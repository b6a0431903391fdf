// Query execution: filter, hash join, projection, aggregation.
//
// The preference-aware query enhancement of HYPRE (dissertation §4.6) turns
// a base query plus a combined preference predicate into
//   SELECT ... FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid
//   WHERE <combined predicate>
// and the combination algorithms issue thousands of COUNT(DISTINCT pid)
// probes. The executor supports exactly this query class, with
// predicate push-down to base tables and index-backed candidate pruning so
// the probes stay cheap.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "reldb/database.h"
#include "reldb/expr.h"

namespace hypre {
namespace reldb {

/// \brief One equi-join step: `... JOIN right_table ON left = right`.
/// `left_column` may reference any table already in scope (qualified
/// "table.column" or unqualified); `right_column` belongs to `right_table`.
struct JoinSpec {
  std::string right_table;
  std::string left_column;
  std::string right_column;
};

/// \brief A SELECT query over one table plus optional chained equi-joins.
struct Query {
  std::string from;
  std::vector<JoinSpec> joins;
  ExprPtr where;  // may be null (no filter)
  /// Projected columns, qualified or unqualified; empty selects all columns
  /// of all tables in scope.
  std::vector<std::string> select;
  std::string order_by;  // optional, qualified or unqualified
  bool order_desc = false;
  size_t limit = 0;  // 0 means unlimited

  /// \brief Renders the query as SQL (for logs, examples and docs).
  std::string ToSql() const;
};

/// \brief Materialized query result.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
};

/// \brief Aggregate functions for grouped queries.
enum class AggregateFunc {
  kCount,          // COUNT(*)
  kCountDistinct,  // COUNT(DISTINCT col)
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// \brief One aggregate output: function + argument column (ignored for
/// kCount).
struct AggregateSpec {
  AggregateFunc func = AggregateFunc::kCount;
  std::string column;
};

/// \brief SELECT group_by..., aggregates... FROM ... GROUP BY group_by.
/// `base.select/order_by/limit` are ignored; grouping keys order the
/// output.
struct GroupByQuery {
  Query base;
  std::vector<std::string> group_by;  // may be empty: one global group
  std::vector<AggregateSpec> aggregates;
};

/// \brief Splits "t.c" into {"t", "c"}; plain "c" yields {"", "c"}.
std::pair<std::string, std::string> SplitQualifiedName(
    const std::string& name);

/// \brief Interns distinct values into contiguous dense ids (first-seen
/// order). Equality/hashing follow Value::Compare, so Int(2) and Real(2.0)
/// share an id, matching DistinctValues' dedup semantics. The dense ids are
/// the bit positions used by the bitmap-backed probe engine.
class DenseDictionary {
 public:
  static constexpr uint32_t kNotFound = ~uint32_t{0};

  /// \brief Id of `v`, interning it if absent.
  uint32_t Intern(const Value& v);
  /// \brief Id of `v`, or kNotFound if it was never interned.
  uint32_t Lookup(const Value& v) const;

  /// \brief Drops the value -> id mapping while keeping the id slot
  /// allocated (the stale value stays addressable through value()). The
  /// delta engine tombstones a dead key this way so its dense id can be
  /// recycled later.
  void Forget(const Value& v);

  /// \brief Rebinds a previously Forgotten id to a new value — dense-id
  /// recycling. The id must not currently be mapped to any value.
  void Reassign(uint32_t id, const Value& v);

  /// \brief Snapshot-restore hook: appends `v` as the next dense id. When
  /// `live` is false the value -> id mapping is NOT created (the slot is a
  /// tombstone whose stale value must stay addressable through value() but
  /// must not shadow a live key that re-interned the same value under a
  /// different id). Ids must be restored in order, into an empty dictionary.
  uint32_t Restore(const Value& v, bool live);

  /// \brief Pre-sizes the slot vector and id map for a bulk Restore pass.
  void Reserve(size_t num_keys) {
    values_.reserve(num_keys);
    ids_.reserve(num_keys);
  }

  const Value& value(uint32_t id) const { return values_[id]; }
  size_t size() const { return values_.size(); }

 private:
  std::vector<Value> values_;
  std::unordered_map<Value, uint32_t, ValueHash> ids_;
};

class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// \brief Runs the query and materializes all output rows.
  Result<ResultSet> Execute(const Query& query) const;

  /// \brief COUNT(DISTINCT column) over the query's matching rows.
  Result<size_t> CountDistinct(const Query& query,
                               const std::string& column) const;

  /// \brief Distinct values of `column` over the matching rows, in first-seen
  /// order.
  Result<std::vector<Value>> DistinctValues(const Query& query,
                                            const std::string& column) const;

  /// \brief Interns the distinct values of `column` over the matching rows
  /// into `dict` (first-seen order). The dense-dictionary hook behind the
  /// probe engine's one-time key-universe scan.
  Status InternDistinctValues(const Query& query, const std::string& column,
                              DenseDictionary* dict) const;

  /// \brief Streams the dense id (under `dict`) of `column` for every
  /// matching row; values absent from the dictionary are skipped. Ids repeat
  /// when several joined rows share a key — callers typically OR them into a
  /// bitmap, which dedups for free.
  Status ForEachDenseId(const Query& query, const std::string& column,
                        const DenseDictionary& dict,
                        const std::function<void(uint32_t)>& fn) const;

  /// \brief Bulk variant of ForEachDenseId for many predicates at once: runs
  /// `query` ONCE (its own WHERE stays a hard constraint) and, for every
  /// matching joined row, evaluates each of `predicates` against that row,
  /// calling `fn(pred_idx, dense_id)` for the ones that hold. One pass over
  /// the executor replaces one query per predicate — the bulk leaf-prefetch
  /// hook behind the probe engine's PrefetchLeaves.
  Status ForEachDenseIdMulti(
      const Query& query, const std::string& column,
      const DenseDictionary& dict, const std::vector<ExprPtr>& predicates,
      const std::function<void(size_t, uint32_t)>& fn) const;

  // --- Delta-maintenance entry points -------------------------------------
  //
  // The three hooks below back the probe engine's incremental Refresh path
  // (src/hypre/delta_engine.*). They stream raw key Values rather than
  // dense ids because the delta consumer grows the dictionary as it goes.
  // ForEachAppendedMatch and ForEachMatchOfRow start the join walk from
  // the delta rows and reach every other slot through the join tree (each
  // through its join-column hash index where it has one), so their cost
  // follows the rows the delta reaches, for any join length.

  /// \brief Streams the value of `column` for every matching joined tuple,
  /// evaluating `predicates` against each: `tuple_fn(key)` once per tuple,
  /// then `pred_fn(p, key)` for each predicate that holds. One pass answers
  /// "does this key exist" and "which leaves does it match" together — the
  /// per-key recompute hook behind delete maintenance. The walk starts at
  /// the FROM table, so a key-pinned WHERE on it keeps the pass small.
  Status ForEachKeyedMatch(
      const Query& query, const std::string& column,
      const std::vector<ExprPtr>& predicates,
      const std::function<void(const Value&)>& tuple_fn,
      const std::function<void(size_t, const Value&)>& pred_fn) const;

  /// \brief Like ForEachKeyedMatch, restricted to the joined tuples that did
  /// NOT exist before the per-table append watermarks: a tuple qualifies iff
  /// at least one slot's row id is >= first_new_row[that slot's table].
  /// Implemented as one pass per watermarked slot, rooted at that slot's
  /// new rows, so a tuple whose new rows span several slots is emitted once
  /// per such slot — consumers must be idempotent (bitmap Set is) and must
  /// not depend on emission order. Tables absent from the map are treated
  /// as having no new rows.
  Status ForEachAppendedMatch(
      const Query& query, const std::string& column,
      const std::unordered_map<std::string, RowId>& first_new_row,
      const std::vector<ExprPtr>& predicates,
      const std::function<void(const Value&)>& tuple_fn,
      const std::function<void(size_t, const Value&)>& pred_fn) const;

  /// \brief Streams the value of `column` for every joined tuple containing
  /// row `row` of `table`, treating that row — and any rows listed in
  /// `extra_visible` — as visible even if tombstoned. This reconstructs the
  /// pre-delete join state: the tuples a freshly deleted row participated in
  /// name exactly the keys whose leaf memberships must be recomputed. The
  /// walk starts from the pinned row alone; tombstoned `extra_visible` rows
  /// join where their join key matches.
  Status ForEachMatchOfRow(
      const Query& query, const std::string& column, const std::string& table,
      RowId row,
      const std::unordered_map<std::string, std::vector<RowId>>& extra_visible,
      const std::function<void(const Value&)>& fn) const;

  /// \brief Grouped aggregation. Output columns: the group-by columns then
  /// one per aggregate; rows sorted by the group key. SUM/AVG require
  /// numeric (or NULL) inputs; NULLs are skipped by all aggregates except
  /// COUNT(*).
  Result<ResultSet> ExecuteGroupBy(const GroupByQuery& query) const;

 private:
  const Database* db_;
};

}  // namespace reldb
}  // namespace hypre
