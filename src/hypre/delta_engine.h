// Incremental universe maintenance: the delta/epoch subsystem.
//
// The probe engine interns the base query's key universe once and caches a
// bitmap per leaf predicate. Without maintenance, any append or delete on a
// base table silently invalidates all of that and forces a full engine
// rebuild. DeltaEngine keeps the interned state correct under mutations at
// a cost proportional to the delta, not the database:
//
//  * Journal consumption. Tables owned by a Database record every append
//    and tombstone delete into the database's MutationJournal
//    (src/reldb/mutation_journal.h). Refresh() replays the journal suffix
//    since its cursor; mutations on tables outside the base query are
//    skipped without an epoch change.
//  * Append pass. New joined tuples are exactly the tuples involving at
//    least one appended row, so one executor pass per affected slot
//    (Executor::ForEachAppendedMatch), rooted at that slot's new rows,
//    evaluates the delta rows against every cached leaf. New keys get
//    dense ids — recycled from tombstoned ids when available (stale leaf
//    bits scrubbed first), otherwise tail-grown with every cached bitmap
//    resized once. Appends only ever ADD memberships, so re-emitted tuples
//    are harmless.
//  * Delete pass. A tombstoned row names the keys whose memberships may
//    have lost a supporting tuple: rows of the key column's own table carry
//    their key directly; rows of joined tables are re-joined in their
//    pre-delete state, starting from the deleted row itself
//    (Executor::ForEachMatchOfRow with the slice's deleted rows made
//    visible). The slice's affected keys are then recomputed exactly in
//    ONE keyed pass (`key_column IN (...)`, served from a hash index on
//    the key column when there is one, one scan otherwise) — alive keys
//    get their leaf bits set/cleared per-leaf, dead keys leave the
//    universe: their live-mask bit clears, their dictionary mapping is
//    forgotten, and their dense id joins the free list. Stale leaf bits at
//    tombstoned ids are NOT scrubbed eagerly; every probe path ANDs the
//    live mask instead (ProbeEngine::Eval, and CombinationProber's
//    BitsInto, compiled mask group and three-operand AND count — the
//    prober borrows cached leaves unmasked).
//  * Key order. The ids the append pass added or recycled are merged into
//    the engine's value-sorted key order (ProbeEngine::MergeKeyOrder), at
//    O(n) integer moves plus O(k log n) compares for k such ids, instead
//    of re-sorting every key.
//  * Epoch compaction. Once tombstoned ids exceed
//    DeltaOptions::rebuild_tombstone_ratio of the universe, Refresh falls
//    back to a full epoch rebuild (clear + lazy re-intern) — the compaction
//    path that keeps the dense-id space tight.
//
// Every applied Refresh bumps the engine epoch. CombinationProber (and
// through it the five prober-based algorithms) revalidates its cached
// per-preference bitmaps against the epoch, and TA evaluates its atoms
// through the engine directly, so algorithm runs started after a Refresh
// see one consistent snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypre/probe_engine.h"
#include "reldb/mutation_journal.h"

namespace hypre {
namespace core {

/// \brief Tuning knobs for the delta subsystem.
struct DeltaOptions {
  /// Tombstoned fraction of the universe above which Refresh() compacts via
  /// a full epoch rebuild instead of keeping masked tombstones around.
  double rebuild_tombstone_ratio = 0.5;
};

/// \brief Consumes the database's mutation journal and patches its owning
/// ProbeEngine's interned universe, leaf-bitmap cache, and key order in
/// place. Owned by (and friend of) ProbeEngine; drive it through
/// ProbeEngine::Refresh().
class DeltaEngine {
 public:
  struct Stats {
    uint64_t epoch = 0;           // == ProbeEngine::epoch()
    uint64_t journal_cursor = 0;  // next journal sequence to consume
    size_t appends_seen = 0;      // journal appends on base-query tables
    size_t deletes_seen = 0;      // journal deletes on base-query tables
    size_t keys_added = 0;        // tail-grown dense ids
    size_t keys_recycled = 0;     // tombstoned ids rebound to new keys
    size_t keys_tombstoned = 0;   // keys removed from the universe
    size_t keys_recomputed = 0;   // affected keys re-evaluated exactly
    size_t recompute_passes = 0;  // keyed passes doing it (one per slice)
    size_t incremental_refreshes = 0;
    size_t full_rebuilds = 0;  // epoch compactions (threshold or NULL key)
    // Refresh requests that found readers holding epoch pins: the journal
    // suffix was left in place and applies when the pins drain (see the
    // epoch-pin section in probe_engine.h).
    size_t refreshes_deferred = 0;
  };

  DeltaEngine(ProbeEngine* engine, DeltaOptions options)
      : engine_(engine), options_(options) {}

  /// \brief See ProbeEngine::Refresh().
  Result<uint64_t> Refresh();

  /// \brief Called by the engine when the universe is (re)interned: the
  /// journal prefix is baked into the fresh scan, so consumption restarts
  /// at `journal_sequence`.
  void OnUniverseInterned(uint64_t journal_sequence) {
    stats_.journal_cursor = journal_sequence;
  }

  /// \brief Called by the engine after a snapshot image restore: the image
  /// baked in everything up to `journal_cursor` at epoch `epoch`, so
  /// consumption resumes there with the epoch counter carried over.
  void OnSnapshotRestored(uint64_t journal_cursor, uint64_t epoch) {
    stats_.journal_cursor = journal_cursor;
    stats_.epoch = epoch;
  }

  const Stats& stats() const { return stats_; }
  void set_options(const DeltaOptions& options) { options_ = options; }
  const DeltaOptions& options() const { return options_; }

  /// \brief Called by ProbeEngine (under its refresh mutex) when a Refresh
  /// found readers pinned and deferred the journal suffix.
  void NoteRefreshDeferred() { ++stats_.refreshes_deferred; }

 private:
  /// Collects the cached leaves in a stable order (exprs + bitmap slots).
  void SnapshotLeaves(std::vector<reldb::ExprPtr>* exprs,
                      std::vector<KeyBitmap*>* bits) const;
  /// Interns `key` (recycling a tombstoned id when possible) or returns its
  /// existing id.
  uint32_t InternKey(const reldb::Value& key);
  Status ApplyAppends(
      const std::unordered_map<std::string, reldb::RowId>& first_new_row,
      const std::vector<reldb::ExprPtr>& leaf_exprs,
      const std::vector<KeyBitmap*>& leaf_bits);
  Status ApplyDeletes(
      const std::unordered_map<std::string, std::vector<reldb::RowId>>&
          deleted_rows,
      const std::vector<reldb::ExprPtr>& leaf_exprs,
      const std::vector<KeyBitmap*>& leaf_bits, bool* needs_rebuild);
  /// Exact re-evaluation of the (key, dense id) pairs against the current
  /// table state, in one keyed pass; keys are patched in list order.
  Status RecomputeKeys(
      const std::vector<std::pair<reldb::Value, uint32_t>>& keys,
      const std::vector<reldb::ExprPtr>& leaf_exprs,
      const std::vector<KeyBitmap*>& leaf_bits);
  /// Epoch compaction: drops all interned state; the next probe re-interns
  /// lazily against the current table state.
  void FullRebuild();

  ProbeEngine* engine_;
  DeltaOptions options_;
  Stats stats_;
  // Ids this Refresh appended or recycled: the only ones whose place in the
  // key order changes (merged in by ProbeEngine::MergeKeyOrder).
  std::vector<uint32_t> changed_ids_;
};

}  // namespace core
}  // namespace hypre
