// Session: the multi-request facade over the probe stack.
//
// A Session owns (or borrows) one Database and serves any number of
// EnumerationRequests against it. Per (base query, key column) it keeps ONE
// QueryEnhancer — i.e. one ProbeEngine with its interned universe, leaf
// cache, and delta subsystem — so consecutive requests share universe
// interning and leaf prefetch instead of rebuilding them per call, and
// every consumer goes through one versioned read path:
//
//   request ──▶ FindAlgorithm: the kAlgorithms row (by name)
//           ──▶ enhancer cache [(base SQL, key column) → QueryEnhancer]
//           ──▶ Refresh(): journal drained, epoch pinned for this request
//           ──▶ bulk leaf prefetch over the request's preference leaves
//           ──▶ row.run: one call into the algorithm core (budget + sinks
//               wired through)
//           ──▶ result {records/top_k, ProbeStats delta, epoch, truncated}
//
// Thread model: single writer, many readers — concurrent Enumerate()
// calls from any number of threads are safe and see consistent snapshots.
//
//  * READ side. Enumerate()/GetEnhancer()/Refresh() may be called from any
//    thread at any time. Each request takes a refcounted EPOCH PIN on its
//    engine (ProbeEngine::PinEpoch): while any pin is held the engine's
//    interned state is immutable — a concurrent Refresh or auto-checkpoint
//    defers the journal suffix instead of resizing bitmaps under the run,
//    and applies it when the last reader drains. A request with
//    request.refresh = true drains the journal first (read-your-writes),
//    which reads base tables, so it belongs to the WRITE side below; a
//    request with refresh = false is a PURE reader and never touches
//    tables, making it safe even against a concurrent writer.
//  * WRITE side. Base-table mutations, refresh-bearing requests,
//    Session::Refresh(), and every storage operation (AttachStorage /
//    SaveSnapshot / CommitJournal and the auto-checkpoint policy) must be
//    serialized with EACH OTHER by the caller — one writer thread, or an
//    external lock. They need no coordination with the read side: that is
//    what the epoch pins and the internal locks below provide.
//
// Internal synchronization (lock order, outermost first — see also the
// epoch-pin section in probe_engine.h and the concurrency section of
// ARCHITECTURE.md):
//   storage_mu_   — serializes the storage entry points and the
//                   auto-checkpoint policy against each other
//   enhancers_mu_ — shared_mutex over the enhancer cache: shared for
//                   lookup/iteration, unique only for first-touch insert
//   per-engine    — ProbeEngine's refresh_mu_ then cache_mu_
//
// Every request's probes run inline on the calling thread; the session's
// parallelism is its concurrent requests. They pass the AdmissionScheduler
// (see api/scheduler.h): strict-FIFO admission under a configurable
// concurrency cap and a bound on summed in-flight probe budgets; both caps
// default to unlimited.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "hypre/api/enumeration.h"
#include "hypre/api/scheduler.h"
#include "hypre/query_enhancement.h"
#include "hypre/storage/store.h"
#include "reldb/database.h"

namespace hypre {
namespace parallel {

// servebench/main.cc still reports the `parallel.steals`/`parks` metrics
// of the work-stealing pool the probe path no longer has. This stub (with
// Session::has_task_pool/task_pool below) keeps it building and reading 0;
// it goes when the next benchmark change drops those two metrics.
class TaskPool {
 public:
  struct Stats {
    uint64_t steals = 0;
    uint64_t parks = 0;
  };
  Stats DumpStats() const { return {}; }
};

}  // namespace parallel

namespace api {

class Session {
 public:
  /// \brief Session over a borrowed database (must outlive the session).
  explicit Session(const reldb::Database* db) : db_(db) {}
  /// \brief Session that owns its database.
  explicit Session(std::unique_ptr<reldb::Database> db)
      : owned_db_(std::move(db)), db_(owned_db_.get()) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// Joins the background checkpoint worker (a queued-but-unstarted job is
  /// dropped; its mutations are already durable in the WAL).
  ~Session();

  /// \brief Reopens a session from a storage directory: loads the snapshot,
  /// replays the write-ahead journal tail, rebuilds every persisted engine
  /// (dictionary, leaf cache, delta cursor) and attaches the store for
  /// further checkpoints. Fails closed — on any corruption no session is
  /// returned and the directory is left untouched. Requires a session that
  /// OWNS its database, which this constructor arranges.
  static Result<std::unique_ptr<Session>> OpenFromSnapshot(
      const std::string& dir, const storage::StorageOptions& options = {});

  /// \brief Runs one enumeration request end to end: table lookup,
  /// enhancer-cache lookup, epoch pinning, leaf prefetch, the algorithm
  /// itself, and the per-request statistics delta. With no probe budget the
  /// records/tuples are byte-identical to calling the algorithm core
  /// directly on an equivalent enhancer.
  Result<EnumerationResult> Enumerate(const EnumerationRequest& request);

  /// \brief The cached enhancer for (base_query, key_column), created on
  /// first use. Exposed for consumers outside the six algorithms (ranking,
  /// skyline, metrics) so they share the same engines the requests warm.
  Result<core::QueryEnhancer*> GetEnhancer(const reldb::Query& base_query,
                                           const std::string& key_column);

  /// \brief Catches every cached engine up with the database's mutation
  /// journal. Returns the highest resulting epoch (0 when no engine is
  /// cached yet). Individual requests with request.refresh (the default)
  /// do this for their own engine automatically. Never blocks on in-flight
  /// enumerations: an engine with readers pinned defers its journal suffix
  /// (see ProbeEngine::Refresh).
  Result<uint64_t> Refresh();

  /// \brief The algorithm names (sorted) — what `algorithm` accepts.
  std::vector<std::string> Algorithms() const {
    std::vector<std::string> names;
    for (const Algorithm& algorithm : kAlgorithms) {
      names.emplace_back(algorithm.name);
    }
    return names;
  }

  const reldb::Database* db() const { return db_; }
  /// \brief Mutable database access; null unless the session owns it.
  reldb::Database* mutable_db() { return owned_db_.get(); }
  /// \brief Number of distinct (base query, key column) engines cached.
  size_t num_cached_engines() const {
    std::shared_lock<std::shared_mutex> lock(enhancers_mu_);
    return enhancers_.size();
  }

  /// \brief servebench bridge (see parallel::TaskPool above): no pool.
  bool has_task_pool() const { return false; }
  parallel::TaskPool* task_pool() { return nullptr; }

  /// \brief The request admission scheduler. Unlimited by default;
  /// configure with scheduler().set_options({...}) to cap concurrent
  /// requests and in-flight probe spend. Thread-safe.
  AdmissionScheduler& scheduler() { return scheduler_; }

  // --- Durable storage ------------------------------------------------------

  /// \brief Attaches a FRESH storage directory and writes the initial
  /// checkpoint (snapshot + fresh write-ahead log) covering the session's
  /// current state. Refuses a directory that already holds a snapshot —
  /// overwriting another session's durable state would be silent data
  /// loss; reopen such a directory with OpenFromSnapshot instead. Requires
  /// a session that owns its database (the store truncates the journal,
  /// which a borrowed database's other consumers would not survive).
  /// Subsequent mutations become durable via CommitJournal() /
  /// SaveSnapshot() or the auto-checkpoint policy in
  /// StorageOptions::auto_checkpoint_mutations.
  Status AttachStorage(const std::string& dir,
                       const storage::StorageOptions& options = {});

  /// \brief Refreshes every cached engine, then writes a full checkpoint:
  /// journal spill, snapshot (atomic rename), WAL rotation, in-memory
  /// journal truncation. Restarting from the result is warm — no CSV
  /// re-parse, no universe re-intern, no leaf re-materialization.
  Status SaveSnapshot();

  /// \brief Spills the journal tail to the write-ahead log and fsyncs it —
  /// the group-commit point making recent mutations durable without the
  /// cost of a full snapshot.
  Status CommitJournal();

  bool has_storage() const { return store_ != nullptr; }
  /// \brief The attached store (null when not storage-backed).
  storage::EngineStore* store() { return store_.get(); }
  /// \brief True while the background worker is writing a snapshot.
  bool checkpoint_in_flight() const {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    return checkpoint_inflight_;
  }

 private:
  /// Captures every cached engine's durable state, sorted by cache key so
  /// snapshot bytes are deterministic.
  std::vector<storage::SnapshotEngineState> CaptureEngineStates() const;
  /// RefreshBlocking on every cached engine — the checkpoint paths need
  /// every journal suffix APPLIED (a deferred refresh would leave an engine
  /// cursor behind the snapshot sequence), so this waits for in-flight
  /// readers to drain instead of deferring. Returns the highest epoch.
  Result<uint64_t> RefreshAllBlocking();
  /// The request pipeline behind Enumerate() (which only adds admission
  /// and the optional trace installation around it).
  Status EnumerateInternal(const EnumerationRequest& request,
                           EnumerationResult* result);

  // --- Background auto-checkpointing ---------------------------------------
  //
  // The auto_checkpoint_mutations policy (PR 7) ran the full checkpoint —
  // snapshot encode AND write — inside the triggering request. Now only
  // the WAL group commit and the in-memory encode stay on the request
  // path; the snapshot's file I/O (write + fsync + rename, the dominant
  // cost) moves to a lazily spawned worker thread. The WAL rotation +
  // journal truncation that retire a published snapshot are deferred to
  // the NEXT request (FinishPublishedCheckpoint), because rotating the log
  // off-thread while the request path appends to it would reintroduce the
  // recovery data-loss hazard documented in storage/store.h.

  /// Applies the auto-checkpoint policy after a mutation-bearing request:
  /// surfaces any sticky background failure, retires a published snapshot,
  /// and enqueues a new checkpoint when the threshold is reached (skipped
  /// while one is in flight).
  Status MaybeAutoCheckpoint();
  /// Request-path tail of a background checkpoint: records the published
  /// snapshot, rotates the WAL (re-spilling the tail), truncates the
  /// journal.
  Status FinishPublishedCheckpoint();
  /// Blocks until no snapshot write is in flight, surfaces any background
  /// error, and retires a published snapshot.
  Status DrainBackgroundCheckpoint();
  void EnsureCheckpointThread();
  void CheckpointWorkerMain();

  struct PendingCheckpoint {
    std::string blob;  // EncodeSnapshot output, captured while quiescent
    uint64_t seq = 0;  // journal sequence the blob covers
  };
  std::unique_ptr<reldb::Database> owned_db_;
  const reldb::Database* db_;
  // (base query SQL + key column) -> the one enhancer/engine all requests
  // over that query share. enhancers_mu_ guards the MAP (shared for
  // lookup, unique for first-touch insert); entries are unique_ptrs, so
  // QueryEnhancer pointers handed out under the shared lock stay valid
  // unlocked for the session's lifetime (entries are never erased).
  mutable std::shared_mutex enhancers_mu_;
  std::unordered_map<std::string, std::unique_ptr<core::QueryEnhancer>>
      enhancers_;
  // Request admission (FIFO, concurrency + probe-budget caps).
  AdmissionScheduler scheduler_;
  // Serializes the storage entry points (AttachStorage, SaveSnapshot,
  // CommitJournal) and the per-request auto-checkpoint policy against each
  // other. Ordered BEFORE enhancers_mu_ and the engines' refresh mutexes.
  std::mutex storage_mu_;
  // Durable storage backend; null until AttachStorage/OpenFromSnapshot.
  // The pointer is written once under storage_mu_ before concurrent use.
  std::unique_ptr<storage::EngineStore> store_;

  // Background checkpointer state (all guarded by checkpoint_mu_ except
  // the thread handle, touched only by the session's owner thread).
  std::thread checkpoint_thread_;
  mutable std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  std::optional<PendingCheckpoint> checkpoint_job_;
  bool checkpoint_inflight_ = false;
  bool checkpoint_shutdown_ = false;
  // A snapshot the worker published whose WAL rotation is still pending.
  bool published_pending_ = false;
  uint64_t published_seq_ = 0;
  // Sticky failure from the worker, surfaced on the next request.
  Status checkpoint_error_;
};

}  // namespace api
}  // namespace hypre
