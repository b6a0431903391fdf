#include "hypre/delta_engine.h"

#include <chrono>
#include <utility>

#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "reldb/executor.h"
#include "reldb/expr.h"

namespace hypre {
namespace core {

namespace {

using reldb::RowId;
using reldb::Value;

/// Resolves `key_column` ("t.c" or plain "c") to the slot table that owns it
/// plus the column index there, so key-table deletes can read their key
/// straight from the tombstoned row payload.
Result<std::pair<std::string, size_t>> ResolveKeyTable(
    const reldb::Database* db, const reldb::Query& query,
    const std::string& key_column) {
  auto [table, column] = reldb::SplitQualifiedName(key_column);
  std::vector<std::string> names;
  names.reserve(query.joins.size() + 1);
  names.push_back(query.from);
  for (const auto& join : query.joins) names.push_back(join.right_table);
  std::string found_table;
  int found_col = -1;
  for (const auto& name : names) {
    if (!table.empty() && name != table) continue;
    const reldb::Table* t = db->GetTable(name);
    if (t == nullptr) continue;
    int col = t->schema().FindColumn(column);
    if (col < 0) continue;
    if (found_col >= 0) {
      return Status::InvalidArgument("ambiguous key column '" + key_column +
                                     "'");
    }
    found_table = name;
    found_col = col;
  }
  if (found_col < 0) {
    return Status::NotFound("key column '" + key_column +
                            "' not found in the base query");
  }
  return std::make_pair(found_table, static_cast<size_t>(found_col));
}

}  // namespace

void DeltaEngine::SnapshotLeaves(std::vector<reldb::ExprPtr>* exprs,
                                 std::vector<KeyBitmap*>* bits) const {
  exprs->reserve(engine_->leaf_cache_.size());
  bits->reserve(engine_->leaf_cache_.size());
  for (auto& [key, entry] : engine_->leaf_cache_) {
    exprs->push_back(entry.expr);
    bits->push_back(entry.bits.get());
  }
}

uint32_t DeltaEngine::InternKey(const Value& key) {
  uint32_t id = engine_->dict_.Lookup(key);
  if (id != reldb::DenseDictionary::kNotFound) return id;
  if (!engine_->free_ids_.empty()) {
    // Dense-id recycling: rebind a tombstoned id. Its bits in the cached
    // leaves are stale leftovers of the dead key it used to name — scrub
    // them before the new key takes the id over.
    id = engine_->free_ids_.back();
    engine_->free_ids_.pop_back();
    engine_->dict_.Reassign(id, key);
    for (auto& [canonical, entry] : engine_->leaf_cache_) {
      entry.bits->Reset(id);
    }
    --engine_->num_tombstones_;
    ++stats_.keys_recycled;
  } else {
    id = engine_->dict_.Intern(key);
    ++stats_.keys_added;
  }
  changed_ids_.push_back(id);
  return id;
}

Status DeltaEngine::ApplyAppends(
    const std::unordered_map<std::string, RowId>& first_new_row,
    const std::vector<reldb::ExprPtr>& leaf_exprs,
    const std::vector<KeyBitmap*>& leaf_bits) {
  if (first_new_row.empty()) return Status::OK();
  // Buffer the bit assignments: new keys may tail-grow the id space, and
  // every cached bitmap is resized ONCE after the pass instead of per key.
  std::vector<uint32_t> tuple_ids;
  std::vector<std::pair<size_t, uint32_t>> leaf_sets;
  HYPRE_RETURN_NOT_OK(engine_->executor_.ForEachAppendedMatch(
      engine_->base_query_, engine_->key_column_, first_new_row, leaf_exprs,
      [&](const Value& key) { tuple_ids.push_back(InternKey(key)); },
      [&](size_t p, const Value& key) {
        // The tuple callback interned the key just before this fires.
        leaf_sets.emplace_back(p, engine_->dict_.Lookup(key));
      }));
  size_t new_size = engine_->dict_.size();
  if (new_size > engine_->universe_.num_bits()) {
    engine_->universe_.Resize(new_size);
    for (KeyBitmap* bits : leaf_bits) bits->Resize(new_size);
  }
  for (uint32_t id : tuple_ids) engine_->universe_.Set(id);
  for (const auto& [p, id] : leaf_sets) leaf_bits[p]->Set(id);
  return Status::OK();
}

Status DeltaEngine::RecomputeKey(const Value& key, uint32_t id,
                                 const std::vector<reldb::ExprPtr>& leaf_exprs,
                                 const std::vector<KeyBitmap*>& leaf_bits) {
  ++stats_.keys_recomputed;
  // Pin the base query to this key; with a hash index on the key column the
  // recompute touches only the key's own rows.
  auto [table, column] = reldb::SplitQualifiedName(engine_->key_column_);
  reldb::ExprPtr key_eq =
      reldb::Eq(table.empty() ? reldb::Col(column) : reldb::Col(table, column),
                reldb::Lit(key));
  reldb::Query query = engine_->base_query_;
  query.where = query.where ? reldb::MakeAnd(query.where, key_eq) : key_eq;
  bool alive = false;
  std::vector<char> holds(leaf_bits.size(), 0);
  HYPRE_RETURN_NOT_OK(engine_->executor_.ForEachKeyedMatch(
      query, engine_->key_column_, leaf_exprs,
      [&](const Value&) { alive = true; },
      [&](size_t p, const Value&) { holds[p] = 1; }));
  if (!alive) {
    // The key lost its last supporting tuple: clear it from the live mask,
    // forget its dictionary mapping, and queue the dense id for recycling.
    // Stale leaf bits stay behind — masked out by the live mask until the
    // id is scrubbed on reuse (or an epoch rebuild compacts).
    engine_->universe_.Reset(id);
    engine_->dict_.Forget(key);
    engine_->free_ids_.push_back(id);
    ++engine_->num_tombstones_;
    ++stats_.keys_tombstoned;
    return Status::OK();
  }
  engine_->universe_.Set(id);
  for (size_t p = 0; p < leaf_bits.size(); ++p) {
    if (holds[p] != 0) {
      leaf_bits[p]->Set(id);
    } else {
      leaf_bits[p]->Reset(id);
    }
  }
  return Status::OK();
}

Status DeltaEngine::ApplyDeletes(
    const std::unordered_map<std::string, std::vector<RowId>>& deleted_rows,
    const std::vector<reldb::ExprPtr>& leaf_exprs,
    const std::vector<KeyBitmap*>& leaf_bits, bool* needs_rebuild) {
  if (deleted_rows.empty()) return Status::OK();
  HYPRE_ASSIGN_OR_RETURN(
      auto key_loc,
      ResolveKeyTable(engine_->db_, engine_->base_query_,
                      engine_->key_column_));
  // Affected keys: every key whose membership may have lost a supporting
  // tuple. Key-table rows carry their key in the retained payload; rows of
  // joined tables are re-joined in their pre-delete state (this slice's
  // deleted rows made visible again). Over-approximation is harmless — each
  // affected key is recomputed exactly below.
  std::unordered_set<Value, reldb::ValueHash> affected;
  for (const auto& [table_name, rows] : deleted_rows) {
    const reldb::Table* table = engine_->db_->GetTable(table_name);
    if (table == nullptr) continue;
    if (table_name == key_loc.first) {
      for (RowId row : rows) {
        if (row < table->num_rows()) {
          affected.insert(table->row(row)[key_loc.second]);
        }
      }
    } else {
      for (RowId row : rows) {
        HYPRE_RETURN_NOT_OK(engine_->executor_.ForEachMatchOfRow(
            engine_->base_query_, engine_->key_column_, table_name, row,
            deleted_rows, [&](const Value& key) { affected.insert(key); }));
      }
    }
  }
  for (const Value& key : affected) {
    if (key.is_null()) {
      // `key = NULL` never matches under SQL equality, so a NULL key cannot
      // be re-pinned for recompute; compact instead of guessing.
      *needs_rebuild = true;
      return Status::OK();
    }
    uint32_t id = engine_->dict_.Lookup(key);
    // Unknown keys never made it into this snapshot (e.g. appended and
    // deleted within the slice): nothing to patch.
    if (id == reldb::DenseDictionary::kNotFound) continue;
    HYPRE_RETURN_NOT_OK(RecomputeKey(key, id, leaf_exprs, leaf_bits));
  }
  return Status::OK();
}

void DeltaEngine::FullRebuild() {
  engine_->universe_ready_ = false;
  engine_->dict_ = reldb::DenseDictionary();
  engine_->universe_ = KeyBitmap();
  engine_->num_tombstones_ = 0;
  engine_->free_ids_.clear();
  engine_->sorted_ids_.clear();
  engine_->rank_of_id_.clear();
  engine_->leaf_cache_.clear();
  engine_->count_cache_.clear();
  ++stats_.full_rebuilds;
}

Result<uint64_t> DeltaEngine::Refresh() {
  const reldb::MutationJournal& journal = engine_->db_->journal();
  uint64_t end = journal.sequence();
  if (!engine_->universe_ready_) {
    // Nothing interned yet: the lazy universe scan will bake the whole
    // journal prefix in (EnsureUniverse re-anchors the cursor anyway).
    stats_.journal_cursor = end;
    return stats_.epoch;
  }
  if (stats_.journal_cursor == end) return stats_.epoch;
  telemetry::TraceSpan refresh_span("delta", "refresh_epoch");
#if HYPRE_TELEMETRY_ENABLED
  auto refresh_start = std::chrono::steady_clock::now();
#endif

  std::unordered_set<std::string> tables;
  tables.insert(engine_->base_query_.from);
  for (const auto& join : engine_->base_query_.joins) {
    tables.insert(join.right_table);
  }

  // Partition this epoch's journal slice: per-table append watermarks (the
  // lowest appended row id — everything at or above it is new) and deleted
  // row lists. Mutations on unrelated tables advance the cursor only.
  std::unordered_map<std::string, RowId> first_new_row;
  std::unordered_map<std::string, std::vector<RowId>> deleted_rows;
  size_t relevant = 0;
  journal.ForEachSince(stats_.journal_cursor, [&](const reldb::Mutation& m) {
    if (tables.count(m.table) == 0) return;
    ++relevant;
    if (m.kind == reldb::Mutation::Kind::kAppend) {
      ++stats_.appends_seen;
      auto [it, inserted] = first_new_row.try_emplace(m.table, m.row);
      if (!inserted && m.row < it->second) it->second = m.row;
    } else {
      ++stats_.deletes_seen;
      deleted_rows[m.table].push_back(m.row);
    }
  });
  stats_.journal_cursor = end;
  if (relevant == 0) return stats_.epoch;

  changed_ids_.clear();
  std::vector<reldb::ExprPtr> leaf_exprs;
  std::vector<KeyBitmap*> leaf_bits;
  SnapshotLeaves(&leaf_exprs, &leaf_bits);

  bool needs_rebuild = false;
  Status applied;
  {
    telemetry::TraceSpan span("delta", "apply_appends");
    applied = ApplyAppends(first_new_row, leaf_exprs, leaf_bits);
  }
  if (applied.ok()) {
    telemetry::TraceSpan span("delta", "apply_deletes");
    applied = ApplyDeletes(deleted_rows, leaf_exprs, leaf_bits,
                           &needs_rebuild);
  }
  if (!applied.ok()) {
    // The cursor is already past this slice and the streaming passes may
    // have mutated the dictionary mid-flight; a half-applied patch is not
    // recoverable in place. Compact: drop all interned state so the next
    // probe re-interns against the current tables, then surface the error.
    FullRebuild();
    engine_->epoch_ = ++stats_.epoch;
    return applied;
  }

  // Counts change under any applied mutation; memoized counts must go.
  engine_->count_cache_.clear();
  if (!needs_rebuild && !changed_ids_.empty()) {
    engine_->MergeKeyOrder(std::move(changed_ids_));
    changed_ids_.clear();
  }

  // Epoch compaction once masked tombstones dominate the id space.
  if (!needs_rebuild && engine_->dict_.size() > 0) {
    double ratio = static_cast<double>(engine_->num_tombstones_) /
                   static_cast<double>(engine_->dict_.size());
    needs_rebuild = ratio > options_.rebuild_tombstone_ratio;
  }
  if (needs_rebuild) {
    FullRebuild();
    HYPRE_TELEMETRY_STMT(
        telemetry::MetricsRegistry::Global()
            .GetCounter("hypre_delta_full_rebuilds_total", "delta",
                        "Refreshes that dropped all interned state")
            ->Increment());
  } else {
    ++stats_.incremental_refreshes;
    HYPRE_TELEMETRY_STMT(
        telemetry::MetricsRegistry::Global()
            .GetCounter("hypre_delta_incremental_refreshes_total", "delta",
                        "Refreshes applied in place to leaves/universe")
            ->Increment());
  }
  HYPRE_TELEMETRY_STMT(
      telemetry::MetricsRegistry::Global()
          .GetHistogram("hypre_delta_refresh_us", "delta",
                        "Microseconds per mutation-bearing Refresh() epoch")
          ->Record(uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - refresh_start)
                                .count())));
  engine_->epoch_ = ++stats_.epoch;
  return stats_.epoch;
}

}  // namespace core
}  // namespace hypre
