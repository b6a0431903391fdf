#include "reldb/executor.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace hypre {
namespace reldb {

std::pair<std::string, std::string> SplitQualifiedName(
    const std::string& name) {
  size_t dot = name.find('.');
  if (dot == std::string::npos) return {"", name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}

uint32_t DenseDictionary::Intern(const Value& v) {
  auto [it, inserted] =
      ids_.emplace(v, static_cast<uint32_t>(values_.size()));
  if (inserted) values_.push_back(v);
  return it->second;
}

uint32_t DenseDictionary::Lookup(const Value& v) const {
  auto it = ids_.find(v);
  return it == ids_.end() ? kNotFound : it->second;
}

void DenseDictionary::Forget(const Value& v) { ids_.erase(v); }

void DenseDictionary::Reassign(uint32_t id, const Value& v) {
  values_[id] = v;
  ids_[v] = id;
}

uint32_t DenseDictionary::Restore(const Value& v, bool live) {
  uint32_t id = static_cast<uint32_t>(values_.size());
  values_.push_back(v);
  if (live) ids_[v] = id;
  return id;
}

std::string Query::ToSql() const {
  std::string sql = "SELECT ";
  if (select.empty()) {
    sql += "*";
  } else {
    for (size_t i = 0; i < select.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += select[i];
    }
  }
  sql += " FROM " + from;
  for (const auto& join : joins) {
    sql += " JOIN " + join.right_table + " ON " + join.left_column + " = " +
           join.right_table + "." + join.right_column;
  }
  if (where) sql += " WHERE " + where->ToString();
  if (!order_by.empty()) {
    sql += " ORDER BY " + order_by + (order_desc ? " DESC" : " ASC");
  }
  if (limit > 0) sql += StringFormat(" LIMIT %zu", limit);
  return sql;
}

namespace {

struct Slot {
  const Table* table;
  std::string name;
};

/// Resolves a (table, column) reference against the in-scope slots.
Result<std::pair<size_t, size_t>> ResolveRef(const std::vector<Slot>& slots,
                                             const std::string& table,
                                             const std::string& column) {
  if (!table.empty()) {
    for (size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].name == table) {
        int col = slots[s].table->schema().FindColumn(column);
        if (col < 0) {
          return Status::NotFound("no column '" + column + "' in table '" +
                                  table + "'");
        }
        return std::make_pair(s, static_cast<size_t>(col));
      }
    }
    return Status::NotFound("table '" + table + "' is not in the query");
  }
  // Unqualified: must resolve to a unique slot.
  int found_slot = -1;
  int found_col = -1;
  for (size_t s = 0; s < slots.size(); ++s) {
    int col = slots[s].table->schema().FindColumn(column);
    if (col >= 0) {
      if (found_slot >= 0) {
        return Status::InvalidArgument("ambiguous column '" + column + "'");
      }
      found_slot = static_cast<int>(s);
      found_col = col;
    }
  }
  if (found_slot < 0) {
    return Status::NotFound("no column named '" + column + "' in scope");
  }
  return std::make_pair(static_cast<size_t>(found_slot),
                        static_cast<size_t>(found_col));
}

Result<std::pair<size_t, size_t>> ResolveQualified(
    const std::vector<Slot>& slots, const std::string& qualified) {
  auto [table, column] = SplitQualifiedName(qualified);
  return ResolveRef(slots, table, column);
}

/// Row accessor over one tuple of the (joined) slot row ids.
class JoinedRowAccessor : public RowAccessor {
 public:
  JoinedRowAccessor(const std::vector<Slot>* slots,
                    const std::vector<RowId>* rows)
      : slots_(slots), rows_(rows) {}

  Result<Value> Get(const std::string& table,
                    const std::string& column) const override {
    HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveRef(*slots_, table, column));
    return (*slots_)[loc.first].table->row((*rows_)[loc.first])[loc.second];
  }

 private:
  const std::vector<Slot>* slots_;
  const std::vector<RowId>* rows_;
};

/// Row accessor over a single base-table row (push-down evaluation).
class SingleRowAccessor : public RowAccessor {
 public:
  SingleRowAccessor(const Slot* slot, RowId row) : slot_(slot), row_(row) {}

  Result<Value> Get(const std::string& table,
                    const std::string& column) const override {
    if (!table.empty() && table != slot_->name) {
      return Status::NotFound("table '" + table + "' not in scope");
    }
    int col = slot_->table->schema().FindColumn(column);
    if (col < 0) {
      return Status::NotFound("no column '" + column + "' in table '" +
                              slot_->name + "'");
    }
    return slot_->table->row(row_)[static_cast<size_t>(col)];
  }

 private:
  const Slot* slot_;
  RowId row_;
};

void VisitColumnRefs(const Expr& expr,
                     const std::function<void(const ColumnRefExpr&)>& fn) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      fn(static_cast<const ColumnRefExpr&>(expr));
      return;
    case ExprKind::kLiteral:
      return;
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(expr);
      VisitColumnRefs(*c.lhs(), fn);
      VisitColumnRefs(*c.rhs(), fn);
      return;
    }
    case ExprKind::kBetween:
      VisitColumnRefs(*static_cast<const BetweenExpr&>(expr).column(), fn);
      return;
    case ExprKind::kInList:
      VisitColumnRefs(*static_cast<const InListExpr&>(expr).column(), fn);
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const auto& child : static_cast<const NaryExpr&>(expr).children()) {
        VisitColumnRefs(*child, fn);
      }
      return;
    case ExprKind::kNot:
      VisitColumnRefs(*static_cast<const NotExpr&>(expr).child(), fn);
      return;
  }
}

/// Returns the slot index if every column reference in `expr` resolves to the
/// same slot; -1 if references span slots. Errors on unresolvable columns.
Result<int> ClassifyConjunct(const std::vector<Slot>& slots,
                             const Expr& expr) {
  int slot = -2;  // -2 = no refs yet
  Status error = Status::OK();
  VisitColumnRefs(expr, [&](const ColumnRefExpr& ref) {
    if (!error.ok()) return;
    auto loc = ResolveRef(slots, ref.table(), ref.column());
    if (!loc.ok()) {
      error = loc.status();
      return;
    }
    int s = static_cast<int>(loc->first);
    if (slot == -2) {
      slot = s;
    } else if (slot != s) {
      slot = -1;
    }
  });
  HYPRE_RETURN_NOT_OK(error);
  if (slot == -2) slot = 0;  // constant predicate: evaluate anywhere
  return slot;
}

/// If `expr` is index-usable on `slot`'s table, returns the candidate row
/// ids; otherwise std::nullopt. Recognizes:
///  - col = literal          (hash index)
///  - col IN (...)           (hash index)
///  - OR of the above on the same column (hash index)
///  - col BETWEEN lo AND hi  (ordered index)
///  - col </<=/>/>= literal  (ordered index)
std::optional<std::vector<RowId>> TryIndexCandidates(const Slot& slot,
                                                     const Expr& expr) {
  const Table& table = *slot.table;

  auto column_name_of = [&](const Expr& e) -> std::optional<std::string> {
    if (e.kind() != ExprKind::kColumnRef) return std::nullopt;
    const auto& ref = static_cast<const ColumnRefExpr&>(e);
    if (!ref.table().empty() && ref.table() != slot.name) return std::nullopt;
    if (table.schema().FindColumn(ref.column()) < 0) return std::nullopt;
    return ref.column();
  };
  auto literal_of = [](const Expr& e) -> std::optional<Value> {
    if (e.kind() != ExprKind::kLiteral) return std::nullopt;
    return static_cast<const LiteralExpr&>(e).value();
  };

  switch (expr.kind()) {
    case ExprKind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      auto col = column_name_of(*cmp.lhs());
      auto lit = literal_of(*cmp.rhs());
      CompareOp op = cmp.op();
      if (!col || !lit) {
        // Try the mirrored form `literal op col`.
        col = column_name_of(*cmp.rhs());
        lit = literal_of(*cmp.lhs());
        if (!col || !lit) return std::nullopt;
        switch (op) {
          case CompareOp::kLt:
            op = CompareOp::kGt;
            break;
          case CompareOp::kLe:
            op = CompareOp::kGe;
            break;
          case CompareOp::kGt:
            op = CompareOp::kLt;
            break;
          case CompareOp::kGe:
            op = CompareOp::kLe;
            break;
          default:
            break;
        }
      }
      if (op == CompareOp::kEq) {
        const HashIndex* idx = table.GetHashIndex(*col);
        if (idx == nullptr) return std::nullopt;
        return idx->Lookup(*lit);
      }
      if (op == CompareOp::kLt || op == CompareOp::kLe) {
        const OrderedIndex* idx = table.GetOrderedIndex(*col);
        if (idx == nullptr) return std::nullopt;
        return idx->Range(Value::Null(), true, *lit, op == CompareOp::kLe);
      }
      if (op == CompareOp::kGt || op == CompareOp::kGe) {
        const OrderedIndex* idx = table.GetOrderedIndex(*col);
        if (idx == nullptr) return std::nullopt;
        return idx->Range(*lit, op == CompareOp::kGe, Value::Null(), true);
      }
      return std::nullopt;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      auto col = column_name_of(*bt.column());
      if (!col) return std::nullopt;
      const OrderedIndex* idx = table.GetOrderedIndex(*col);
      if (idx == nullptr) return std::nullopt;
      return idx->Range(bt.lo(), true, bt.hi(), true);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      auto col = column_name_of(*in.column());
      if (!col) return std::nullopt;
      const HashIndex* idx = table.GetHashIndex(*col);
      if (idx == nullptr) return std::nullopt;
      std::vector<RowId> out;
      for (const auto& v : in.values()) {
        const auto& rows = idx->Lookup(v);
        out.insert(out.end(), rows.begin(), rows.end());
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
    case ExprKind::kOr: {
      // Union of index-usable disjuncts; all must be usable.
      const auto& nary = static_cast<const NaryExpr&>(expr);
      std::vector<RowId> out;
      for (const auto& child : nary.children()) {
        auto sub = TryIndexCandidates(slot, *child);
        if (!sub) return std::nullopt;
        out.insert(out.end(), sub->begin(), sub->end());
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
    default:
      return std::nullopt;
  }
}

/// One equi-join edge of the query's join tree: slot `left`'s column
/// `left_col` equals slot `right`'s column `right_col`, where `right` is a
/// JOIN's own table and `left` the earlier slot its left column names.
struct JoinEdge {
  size_t left, left_col;
  size_t right, right_col;
};

struct PlannedQuery {
  std::vector<Slot> slots;
  // One edge per JOIN, in query order; edge j introduces slot j + 1.
  std::vector<JoinEdge> edges;
  // Conjuncts that reference exactly one slot, grouped by slot.
  std::vector<std::vector<ExprPtr>> slot_conjuncts;
  // Conjuncts that span slots; evaluated after the joins.
  std::vector<ExprPtr> residual;
};

/// Where a delta pass starts its join walk. The delta rows (one pinned row,
/// or every row at or above an append watermark) sit in slot `root`; every
/// other slot is reached from them through the join tree. Tombstoned rows
/// are skipped unless pinned or listed in `extra_visible`.
struct ScanRestriction {
  size_t root = 0;
  // Restrict the root to exactly `row` (visible even if tombstoned);
  // otherwise to row ids >= `row` (the append watermark).
  bool pinned = false;
  RowId row = 0;
  // Tombstoned rows to treat as visible, keyed by table name (pre-delete
  // state reconstruction).
  const std::unordered_map<std::string, std::vector<RowId>>* extra_visible =
      nullptr;
};

/// The tombstoned rows `restriction` makes visible in `slot`, or null.
const std::vector<RowId>* ExtraVisibleRows(const Slot& slot,
                                           const ScanRestriction* restriction) {
  if (restriction == nullptr || restriction->extra_visible == nullptr) {
    return nullptr;
  }
  auto it = restriction->extra_visible->find(slot.name);
  return it == restriction->extra_visible->end() ? nullptr : &it->second;
}

/// True if `id` of `slot` may appear in a scan under `restriction`.
bool RowVisible(const Slot& slot, size_t slot_idx, RowId id,
                const ScanRestriction* restriction) {
  if (!slot.table->is_deleted(id)) return true;
  if (restriction == nullptr) return false;
  if (restriction->pinned && restriction->root == slot_idx &&
      restriction->row == id) {
    return true;
  }
  const std::vector<RowId>* extra = ExtraVisibleRows(slot, restriction);
  return extra != nullptr &&
         std::find(extra->begin(), extra->end(), id) != extra->end();
}

Result<PlannedQuery> Plan(const Database& db, const Query& query) {
  PlannedQuery plan;
  HYPRE_ASSIGN_OR_RETURN(const Table* from_table,
                         db.ResolveTable(query.from));
  plan.slots.push_back({from_table, query.from});
  for (const auto& join : query.joins) {
    HYPRE_ASSIGN_OR_RETURN(const Table* right,
                           db.ResolveTable(join.right_table));
    for (const auto& slot : plan.slots) {
      if (slot.name == join.right_table) {
        return Status::NotImplemented(
            "self-joins (duplicate table in FROM) are not supported");
      }
    }
    // The left column may name any table already in scope.
    HYPRE_ASSIGN_OR_RETURN(auto left_loc,
                           ResolveQualified(plan.slots, join.left_column));
    int right_col = right->schema().FindColumn(join.right_column);
    if (right_col < 0) {
      return Status::NotFound("no column '" + join.right_column +
                              "' in table '" + join.right_table + "'");
    }
    plan.edges.push_back({left_loc.first, left_loc.second, plan.slots.size(),
                          static_cast<size_t>(right_col)});
    plan.slots.push_back({right, join.right_table});
  }
  plan.slot_conjuncts.resize(plan.slots.size());
  if (query.where) {
    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(query.where, &conjuncts);
    for (const auto& conjunct : conjuncts) {
      HYPRE_ASSIGN_OR_RETURN(int slot,
                             ClassifyConjunct(plan.slots, *conjunct));
      if (slot >= 0) {
        plan.slot_conjuncts[static_cast<size_t>(slot)].push_back(conjunct);
      } else {
        plan.residual.push_back(conjunct);
      }
    }
  }
  return plan;
}

/// True if row `id` of `slot` satisfies every one of the slot's conjuncts.
Result<bool> RowPasses(const Slot& slot, const std::vector<ExprPtr>& conj,
                       RowId id) {
  SingleRowAccessor accessor(&slot, id);
  for (const auto& c : conj) {
    HYPRE_ASSIGN_OR_RETURN(bool v, Evaluate(*c, accessor));
    if (!v) return false;
  }
  return true;
}

/// Computes the filtered candidate row ids for one slot: index probe from the
/// first index-usable conjunct (or the restriction's pin), then residual
/// per-row evaluation of all of the slot's conjuncts. Tombstoned rows are
/// skipped unless the restriction pins or explicitly exposes them.
Result<std::vector<RowId>> SlotCandidates(const Slot& slot,
                                          const std::vector<ExprPtr>& conj,
                                          size_t slot_idx,
                                          const ScanRestriction* restriction) {
  bool is_root = restriction != nullptr && restriction->root == slot_idx;
  RowId min_row = is_root && !restriction->pinned ? restriction->row : 0;
  std::vector<RowId> candidates;
  bool have_candidates = false;
  if (is_root && restriction->pinned) {
    if (restriction->row < slot.table->num_rows()) {
      candidates.push_back(restriction->row);
    }
    have_candidates = true;
  }
  if (!have_candidates) {
    for (const auto& c : conj) {
      auto idx_rows = TryIndexCandidates(slot, *c);
      if (idx_rows) {
        candidates = std::move(*idx_rows);
        have_candidates = true;
        // Tombstoned rows are unindexed; add back the ones the restriction
        // makes visible. Every conjunct is re-evaluated below, so additions
        // that fail the indexed predicate are filtered out again.
        if (const std::vector<RowId>* extra =
                ExtraVisibleRows(slot, restriction)) {
          for (RowId id : *extra) {
            if (id < slot.table->num_rows()) candidates.push_back(id);
          }
        }
        break;
      }
    }
  }
  if (!have_candidates) {
    size_t num_rows = slot.table->num_rows();
    candidates.reserve(num_rows - std::min<size_t>(min_row, num_rows));
    for (RowId i = min_row; i < num_rows; ++i) candidates.push_back(i);
  }
  std::vector<RowId> out;
  out.reserve(candidates.size());
  for (RowId id : candidates) {
    if (id < min_row) continue;
    if (!RowVisible(slot, slot_idx, id, restriction)) continue;
    HYPRE_ASSIGN_OR_RETURN(bool keep, RowPasses(slot, conj, id));
    if (keep) out.push_back(id);
  }
  return out;
}

/// One step of the join walk: every partial tuple extends into slot `to`
/// through the rows whose `to_col` equals the tuple's `from` slot `from_col`.
struct JoinStep {
  size_t from, from_col;
  size_t to, to_col;
};

/// Re-roots the join tree at `root`: orders the edges so that each step
/// starts from a slot an earlier step (or the root) already bound, walking an
/// edge backwards when the root lies on its right side. Root 0 yields the
/// query's own JOIN order, so the forward pass keeps its left-deep shape.
std::vector<JoinStep> RootedSteps(const PlannedQuery& plan, size_t root) {
  std::vector<char> bound(plan.slots.size(), 0);
  bound[root] = 1;
  std::vector<JoinStep> steps;
  steps.reserve(plan.edges.size());
  // Each JOIN attaches one new slot to the slots before it, so the edges
  // form a tree and every sweep binds at least one more slot.
  while (steps.size() < plan.edges.size()) {
    for (const JoinEdge& e : plan.edges) {
      if (bound[e.left] && !bound[e.right]) {
        steps.push_back({e.left, e.left_col, e.right, e.right_col});
        bound[e.right] = 1;
      } else if (bound[e.right] && !bound[e.left]) {
        steps.push_back({e.right, e.right_col, e.left, e.left_col});
        bound[e.left] = 1;
      }
    }
  }
  return steps;
}

/// Streams every matching joined tuple to `fn(slots, row_ids)`, where
/// row_ids[s] is slot s's row. Without a restriction the walk starts from
/// slot 0's candidates and emits tuples in left-deep join order; a delta
/// restriction starts it from the delta rows in its root slot instead.
Status ForEachMatch(
    const Database& db, const Query& query,
    const std::function<void(const std::vector<Slot>&,
                             const std::vector<RowId>&)>& fn,
    const ScanRestriction* restriction = nullptr) {
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(db, query));
  const size_t width = plan.slots.size();
  size_t root = restriction != nullptr ? restriction->root : 0;

  // Partial tuples, flattened: tuple t binds slot s to tuples[t * width + s]
  // (slots the walk has not reached yet hold 0).
  std::vector<RowId> tuples;
  {
    HYPRE_ASSIGN_OR_RETURN(std::vector<RowId> root_rows,
                           SlotCandidates(plan.slots[root],
                                          plan.slot_conjuncts[root], root,
                                          restriction));
    tuples.assign(root_rows.size() * width, 0);
    for (size_t t = 0; t < root_rows.size(); ++t) {
      tuples[t * width + root] = root_rows[t];
    }
  }

  for (const JoinStep& step : RootedSteps(plan, root)) {
    const Slot& from = plan.slots[step.from];
    const Slot& to = plan.slots[step.to];
    const std::vector<ExprPtr>& conj = plan.slot_conjuncts[step.to];
    std::vector<RowId> next;
    auto extend = [&](size_t t, RowId rid) {
      next.insert(next.end(), tuples.begin() + t * width,
                  tuples.begin() + (t + 1) * width);
      next[next.size() - width + step.to] = rid;
    };
    auto key_of = [&](size_t t) -> const Value& {
      return from.table->row(tuples[t * width + step.from])[step.from_col];
    };
    size_t num_tuples = tuples.size() / width;

    // A slot with a hash index on its join column joins by probing that
    // index: no candidate materialization, no per-query hash-table build.
    // That keeps a delta walk proportional to the rows the delta reaches,
    // whichever slot it starts from. Without a restriction only slots with
    // no conjuncts of their own take it: a filtered slot's candidates are
    // usually far fewer than the tuples probing it. Tombstoned rows are
    // erased from indexes, so the rows the restriction makes visible are
    // added back by value.
    const HashIndex* index =
        conj.empty() || restriction != nullptr
            ? to.table->GetHashIndex(
                  to.table->schema().column(step.to_col).name)
            : nullptr;
    if (index != nullptr) {
      const std::vector<RowId>* extra = ExtraVisibleRows(to, restriction);
      std::vector<RowId> with_extra;
      for (size_t t = 0; t < num_tuples; ++t) {
        const Value& key = key_of(t);
        if (key.is_null()) continue;
        const std::vector<RowId>* rows = &index->Lookup(key);
        if (extra != nullptr) {
          with_extra = *rows;
          for (RowId id : *extra) {
            if (id < to.table->num_rows() && to.table->is_deleted(id) &&
                to.table->row(id)[step.to_col] == key) {
              with_extra.push_back(id);
            }
          }
          std::sort(with_extra.begin(), with_extra.end());
          rows = &with_extra;
        }
        for (RowId rid : *rows) {
          if (!conj.empty()) {
            HYPRE_ASSIGN_OR_RETURN(bool keep, RowPasses(to, conj, rid));
            if (!keep) continue;
          }
          extend(t, rid);
        }
      }
    } else {
      // Build a hash table on the slot's filtered candidates. Posting lists
      // hold ascending row ids, the same per-key order an index holds.
      HYPRE_ASSIGN_OR_RETURN(
          std::vector<RowId> candidates,
          SlotCandidates(to, conj, step.to, restriction));
      std::unordered_map<Value, std::vector<RowId>, ValueHash> hash;
      hash.reserve(candidates.size());
      for (RowId id : candidates) {
        const Value& key = to.table->row(id)[step.to_col];
        if (key.is_null()) continue;
        hash[key].push_back(id);
      }
      for (size_t t = 0; t < num_tuples; ++t) {
        const Value& key = key_of(t);
        if (key.is_null()) continue;
        auto it = hash.find(key);
        if (it == hash.end()) continue;
        for (RowId rid : it->second) extend(t, rid);
      }
    }
    tuples = std::move(next);
  }

  // Residual cross-slot predicate.
  std::vector<RowId> tuple(width);
  JoinedRowAccessor accessor(&plan.slots, &tuple);
  for (size_t begin = 0; begin < tuples.size(); begin += width) {
    std::copy(tuples.begin() + begin, tuples.begin() + begin + width,
              tuple.begin());
    bool keep = true;
    for (const auto& c : plan.residual) {
      HYPRE_ASSIGN_OR_RETURN(bool v, Evaluate(*c, accessor));
      if (!v) {
        keep = false;
        break;
      }
    }
    if (keep) fn(plan.slots, tuple);
  }
  return Status::OK();
}

}  // namespace

Result<ResultSet> Executor::Execute(const Query& query) const {
  // Resolve projection columns once against the slots.
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(*db_, query));
  std::vector<std::pair<size_t, size_t>> projection;
  ResultSet result;
  if (query.select.empty()) {
    for (size_t s = 0; s < plan.slots.size(); ++s) {
      const Schema& schema = plan.slots[s].table->schema();
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        projection.emplace_back(s, c);
        result.column_names.push_back(plan.slots[s].name + "." +
                                      schema.column(c).name);
      }
    }
  } else {
    for (const auto& name : query.select) {
      HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, name));
      projection.push_back(loc);
      result.column_names.push_back(name);
    }
  }

  // Materialize matching tuples (slot row ids) plus an optional sort key.
  bool sorted = !query.order_by.empty();
  std::pair<size_t, size_t> order_loc{0, 0};
  if (sorted) {
    HYPRE_ASSIGN_OR_RETURN(order_loc,
                           ResolveQualified(plan.slots, query.order_by));
  }
  struct Match {
    std::vector<RowId> tuple;
    Value key;
  };
  std::vector<Match> matches;
  HYPRE_RETURN_NOT_OK(ForEachMatch(
      *db_, query,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        Match m;
        m.tuple = tuple;
        if (sorted) {
          m.key = slots[order_loc.first]
                      .table->row(tuple[order_loc.first])[order_loc.second];
        }
        matches.push_back(std::move(m));
      }));

  if (sorted) {
    std::stable_sort(matches.begin(), matches.end(),
                     [&](const Match& a, const Match& b) {
                       int c = a.key.Compare(b.key);
                       return query.order_desc ? c > 0 : c < 0;
                     });
  }
  size_t n = matches.size();
  if (query.limit > 0 && query.limit < n) n = query.limit;

  result.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row out;
    out.reserve(projection.size());
    for (const auto& [s, c] : projection) {
      out.push_back(plan.slots[s].table->row(matches[i].tuple[s])[c]);
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

Result<size_t> Executor::CountDistinct(const Query& query,
                                       const std::string& column) const {
  HYPRE_ASSIGN_OR_RETURN(std::vector<Value> values,
                         DistinctValues(query, column));
  return values.size();
}

Result<std::vector<Value>> Executor::DistinctValues(
    const Query& query, const std::string& column) const {
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(*db_, query));
  HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, column));
  std::vector<Value> out;
  std::unordered_set<Value, ValueHash> seen;
  HYPRE_RETURN_NOT_OK(ForEachMatch(
      *db_, query,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        const Value& v =
            slots[loc.first].table->row(tuple[loc.first])[loc.second];
        if (seen.insert(v).second) out.push_back(v);
      }));
  return out;
}

Status Executor::InternDistinctValues(const Query& query,
                                      const std::string& column,
                                      DenseDictionary* dict) const {
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(*db_, query));
  HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, column));
  return ForEachMatch(
      *db_, query,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        dict->Intern(slots[loc.first].table->row(tuple[loc.first])[loc.second]);
      });
}

Status Executor::ForEachDenseId(const Query& query, const std::string& column,
                                const DenseDictionary& dict,
                                const std::function<void(uint32_t)>& fn) const {
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(*db_, query));
  HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, column));
  return ForEachMatch(
      *db_, query,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        uint32_t id = dict.Lookup(
            slots[loc.first].table->row(tuple[loc.first])[loc.second]);
        if (id != DenseDictionary::kNotFound) fn(id);
      });
}

Status Executor::ForEachDenseIdMulti(
    const Query& query, const std::string& column, const DenseDictionary& dict,
    const std::vector<ExprPtr>& predicates,
    const std::function<void(size_t, uint32_t)>& fn) const {
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(*db_, query));
  HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, column));
  Status failure = Status::OK();
  HYPRE_RETURN_NOT_OK(ForEachMatch(
      *db_, query,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        if (!failure.ok()) return;
        uint32_t id = dict.Lookup(
            slots[loc.first].table->row(tuple[loc.first])[loc.second]);
        if (id == DenseDictionary::kNotFound) return;
        JoinedRowAccessor accessor(&slots, &tuple);
        for (size_t p = 0; p < predicates.size(); ++p) {
          auto held = Evaluate(*predicates[p], accessor);
          if (!held.ok()) {
            failure = held.status();
            return;
          }
          if (*held) fn(p, id);
        }
      }));
  return failure;
}

namespace {

/// Shared driver for the delta entry points: streams the key value of every
/// matching tuple under `restriction` and evaluates `predicates` per tuple.
Status KeyedMatchImpl(const Database& db, const Query& query,
                      const std::string& column,
                      const std::vector<ExprPtr>& predicates,
                      const std::function<void(const Value&)>& tuple_fn,
                      const std::function<void(size_t, const Value&)>& pred_fn,
                      const ScanRestriction* restriction) {
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(db, query));
  HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, column));
  Status failure = Status::OK();
  HYPRE_RETURN_NOT_OK(ForEachMatch(
      db, query,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        if (!failure.ok()) return;
        const Value& key =
            slots[loc.first].table->row(tuple[loc.first])[loc.second];
        tuple_fn(key);
        if (predicates.empty()) return;
        JoinedRowAccessor accessor(&slots, &tuple);
        for (size_t p = 0; p < predicates.size(); ++p) {
          auto held = Evaluate(*predicates[p], accessor);
          if (!held.ok()) {
            failure = held.status();
            return;
          }
          if (*held) pred_fn(p, key);
        }
      },
      restriction));
  return failure;
}

/// Slot-ordered table names of a query: FROM, then each JOIN's right table.
std::vector<std::string> SlotTableNames(const Query& query) {
  std::vector<std::string> names;
  names.reserve(query.joins.size() + 1);
  names.push_back(query.from);
  for (const auto& join : query.joins) names.push_back(join.right_table);
  return names;
}

}  // namespace

Status Executor::ForEachKeyedMatch(
    const Query& query, const std::string& column,
    const std::vector<ExprPtr>& predicates,
    const std::function<void(const Value&)>& tuple_fn,
    const std::function<void(size_t, const Value&)>& pred_fn) const {
  return KeyedMatchImpl(*db_, query, column, predicates, tuple_fn, pred_fn,
                        nullptr);
}

Status Executor::ForEachAppendedMatch(
    const Query& query, const std::string& column,
    const std::unordered_map<std::string, RowId>& first_new_row,
    const std::vector<ExprPtr>& predicates,
    const std::function<void(const Value&)>& tuple_fn,
    const std::function<void(size_t, const Value&)>& pred_fn) const {
  // One pass per watermarked slot: pass s starts its join walk from slot s's
  // new rows, so it sees exactly the joined tuples whose slot-s row is new
  // and costs work in the size of that delta. The union over passes covers
  // every tuple that did not exist at the watermarks (any other tuple is
  // all-old rows).
  std::vector<std::string> slot_names = SlotTableNames(query);
  for (size_t s = 0; s < slot_names.size(); ++s) {
    auto it = first_new_row.find(slot_names[s]);
    if (it == first_new_row.end()) continue;
    const Table* table = db_->GetTable(slot_names[s]);
    if (table != nullptr && it->second >= table->num_rows()) continue;
    ScanRestriction restriction;
    restriction.root = s;
    restriction.row = it->second;
    HYPRE_RETURN_NOT_OK(KeyedMatchImpl(*db_, query, column, predicates,
                                       tuple_fn, pred_fn, &restriction));
  }
  return Status::OK();
}

Status Executor::ForEachMatchOfRow(
    const Query& query, const std::string& column, const std::string& table,
    RowId row,
    const std::unordered_map<std::string, std::vector<RowId>>& extra_visible,
    const std::function<void(const Value&)>& fn) const {
  std::vector<std::string> slot_names = SlotTableNames(query);
  auto slot = std::find(slot_names.begin(), slot_names.end(), table);
  if (slot == slot_names.end()) {
    return Status::InvalidArgument("table '" + table +
                                   "' is not part of the query");
  }
  // The walk starts from the pinned row alone and reaches every other slot
  // through the join tree, so a deleted link row costs its own joins, not a
  // scan of the FROM table.
  ScanRestriction restriction;
  restriction.root = static_cast<size_t>(slot - slot_names.begin());
  restriction.pinned = true;
  restriction.row = row;
  restriction.extra_visible = &extra_visible;
  std::vector<ExprPtr> no_predicates;
  return KeyedMatchImpl(
      *db_, query, column, no_predicates, fn,
      [](size_t, const Value&) {}, &restriction);
}

namespace {

/// Accumulator for one aggregate over one group.
struct AggregateState {
  size_t count = 0;
  double sum = 0.0;
  bool any_numeric = false;
  Value min;
  Value max;
  std::unordered_set<Value, ValueHash> distinct;
};

}  // namespace

Result<ResultSet> Executor::ExecuteGroupBy(const GroupByQuery& query) const {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("GROUP BY query needs >= 1 aggregate");
  }
  HYPRE_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(*db_, query.base));
  std::vector<std::pair<size_t, size_t>> group_locs;
  for (const auto& name : query.group_by) {
    HYPRE_ASSIGN_OR_RETURN(auto loc, ResolveQualified(plan.slots, name));
    group_locs.push_back(loc);
  }
  std::vector<std::pair<size_t, size_t>> agg_locs;
  for (const auto& agg : query.aggregates) {
    if (agg.func == AggregateFunc::kCount) {
      agg_locs.emplace_back(0, 0);  // unused
      continue;
    }
    HYPRE_ASSIGN_OR_RETURN(auto loc,
                           ResolveQualified(plan.slots, agg.column));
    agg_locs.push_back(loc);
  }

  // Group key -> per-aggregate state. Keys are materialized value rows; the
  // map is ordered via a sorted post-pass for deterministic output.
  struct Group {
    Row key;
    std::vector<AggregateState> aggs;
  };
  std::unordered_map<std::string, Group> groups;

  Status failure = Status::OK();
  HYPRE_RETURN_NOT_OK(ForEachMatch(
      *db_, query.base,
      [&](const std::vector<Slot>& slots, const std::vector<RowId>& tuple) {
        if (!failure.ok()) return;
        Row key;
        std::string key_text;
        for (const auto& [s, c] : group_locs) {
          const Value& v = slots[s].table->row(tuple[s])[c];
          key.push_back(v);
          key_text += v.ToString();
          key_text.push_back('\x1f');
        }
        auto [it, inserted] = groups.try_emplace(std::move(key_text));
        Group& group = it->second;
        if (inserted) {
          group.key = std::move(key);
          group.aggs.resize(query.aggregates.size());
        }
        for (size_t a = 0; a < query.aggregates.size(); ++a) {
          AggregateState& state = group.aggs[a];
          if (query.aggregates[a].func == AggregateFunc::kCount) {
            ++state.count;
            continue;
          }
          const auto& [s, c] = agg_locs[a];
          const Value& v = slots[s].table->row(tuple[s])[c];
          if (v.is_null()) continue;  // NULLs are skipped
          switch (query.aggregates[a].func) {
            case AggregateFunc::kCountDistinct:
              state.distinct.insert(v);
              break;
            case AggregateFunc::kSum:
            case AggregateFunc::kAvg:
              if (!v.is_numeric()) {
                failure = Status::InvalidArgument(
                    "SUM/AVG over non-numeric column '" +
                    query.aggregates[a].column + "'");
                return;
              }
              state.sum += v.NumericValue();
              ++state.count;
              state.any_numeric = true;
              break;
            case AggregateFunc::kMin:
              if (state.count == 0 || v.Compare(state.min) < 0) {
                state.min = v;
              }
              ++state.count;
              break;
            case AggregateFunc::kMax:
              if (state.count == 0 || v.Compare(state.max) > 0) {
                state.max = v;
              }
              ++state.count;
              break;
            case AggregateFunc::kCount:
              break;  // handled above
          }
        }
      }));
  HYPRE_RETURN_NOT_OK(failure);

  ResultSet result;
  for (const auto& name : query.group_by) {
    result.column_names.push_back(name);
  }
  for (const auto& agg : query.aggregates) {
    const char* fn = "count";
    switch (agg.func) {
      case AggregateFunc::kCount:
        fn = "count(*)";
        break;
      case AggregateFunc::kCountDistinct:
        fn = "count(distinct)";
        break;
      case AggregateFunc::kSum:
        fn = "sum";
        break;
      case AggregateFunc::kAvg:
        fn = "avg";
        break;
      case AggregateFunc::kMin:
        fn = "min";
        break;
      case AggregateFunc::kMax:
        fn = "max";
        break;
    }
    result.column_names.push_back(
        agg.func == AggregateFunc::kCount
            ? std::string(fn)
            : std::string(fn) + "(" + agg.column + ")");
  }

  std::vector<const Group*> ordered;
  ordered.reserve(groups.size());
  for (const auto& [key_text, group] : groups) ordered.push_back(&group);
  std::sort(ordered.begin(), ordered.end(),
            [](const Group* a, const Group* b) {
              for (size_t i = 0; i < a->key.size(); ++i) {
                int c = a->key[i].Compare(b->key[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });

  for (const Group* group : ordered) {
    Row row = group->key;
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const AggregateState& state = group->aggs[a];
      switch (query.aggregates[a].func) {
        case AggregateFunc::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(state.count)));
          break;
        case AggregateFunc::kCountDistinct:
          row.push_back(
              Value::Int(static_cast<int64_t>(state.distinct.size())));
          break;
        case AggregateFunc::kSum:
          row.push_back(state.any_numeric ? Value::Real(state.sum)
                                          : Value::Null());
          break;
        case AggregateFunc::kAvg:
          row.push_back(state.count > 0
                            ? Value::Real(state.sum /
                                          static_cast<double>(state.count))
                            : Value::Null());
          break;
        case AggregateFunc::kMin:
          row.push_back(state.count > 0 ? state.min : Value::Null());
          break;
        case AggregateFunc::kMax:
          row.push_back(state.count > 0 ? state.max : Value::Null());
          break;
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace reldb
}  // namespace hypre
