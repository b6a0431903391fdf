#include "hypre/api/session.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "sqlparse/select_parser.h"

namespace hypre {
namespace api {

namespace {

#if HYPRE_TELEMETRY_ENABLED
/// Folds one finished request's ProbeStats delta into the registry — ONE
/// counter add per field per request, so the probe hot path itself never
/// touches the registry and the numbers exactly match the per-request
/// stats contract (no double counting between layers).
void FoldRequestStats(const core::ProbeStats& stats, uint64_t request_us) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter* requests = registry.GetCounter(
      "hypre_api_requests_total", "api", "Enumeration requests served");
  static telemetry::Histogram* latency = registry.GetHistogram(
      "hypre_api_request_us", "api", "Microseconds per enumeration request");
  static telemetry::Counter* leaf_queries = registry.GetCounter(
      "hypre_engine_leaf_queries_total", "engine",
      "Relational queries run to materialize leaf bitmaps");
  static telemetry::Counter* cache_hits = registry.GetCounter(
      "hypre_engine_cache_hits_total", "engine",
      "Probes answered from the memoized count cache");
  static telemetry::Counter* batches = registry.GetCounter(
      "hypre_prober_batches_total", "prober", "Batch kernel invocations");
  static telemetry::Counter* batched_probes = registry.GetCounter(
      "hypre_prober_batched_probes_total", "prober",
      "Probes answered through batch kernels");
  static telemetry::Counter* shard_passes = registry.GetCounter(
      "hypre_prober_shard_passes_total", "prober",
      "Shard passes executed by batch kernels");
  requests->Increment();
  latency->Record(request_us);
  leaf_queries->Add(stats.num_leaf_queries);
  cache_hits->Add(stats.num_cache_hits);
  batches->Add(stats.num_batches);
  batched_probes->Add(stats.num_batched_probes);
  shard_passes->Add(stats.num_shard_passes);
}
#endif

}  // namespace

Session::~Session() {
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(checkpoint_mu_);
      checkpoint_shutdown_ = true;
    }
    checkpoint_cv_.notify_all();
    checkpoint_thread_.join();
  }
}

Result<core::ProbeEngine*> Session::GetEngine(
    const reldb::Query& base_query, const std::string& key_column) {
  if (base_query.from.empty()) {
    return Status::InvalidArgument("request has no base query (FROM empty)");
  }
  if (key_column.empty()) {
    return Status::InvalidArgument("request has no key column");
  }
  // The rendered SQL is a stable identity for the query skeleton; the key
  // column joins it because one base query can be probed under different
  // tuple identities.
  std::string key = base_query.ToSql();
  key += '\n';
  key += key_column;
  {
    // Fast path: every request after the first over a query spec finds its
    // engine under the shared lock, so concurrent readers never serialize.
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    auto it = engines_.find(key);
    if (it != engines_.end()) {
      telemetry::TraceNote("api", "engine_cache_hit");
      return it->second.get();
    }
  }
  std::unique_lock<std::shared_mutex> lock(engines_mu_);
  // Re-check: another first-touch request may have built the engine while
  // this one upgraded its lock — find-or-create must resolve to ONE engine.
  auto it = engines_.find(key);
  if (it != engines_.end()) {
    telemetry::TraceNote("api", "engine_cache_hit");
    return it->second.get();
  }
  telemetry::TraceNote("api", "engine_cache_miss");
  it = engines_
           .emplace(std::move(key), std::make_unique<core::ProbeEngine>(
                                        db_, base_query, key_column))
           .first;
  return it->second.get();
}

Result<uint64_t> Session::Refresh() {
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  uint64_t epoch = 0;
  for (auto& [key, engine] : engines_) {
    HYPRE_ASSIGN_OR_RETURN(uint64_t e, engine->Refresh());
    epoch = std::max(epoch, e);
  }
  return epoch;
}

Result<uint64_t> Session::RefreshAllBlocking() {
  std::shared_lock<std::shared_mutex> lock(engines_mu_);
  uint64_t epoch = 0;
  for (auto& [key, engine] : engines_) {
    HYPRE_ASSIGN_OR_RETURN(uint64_t e, engine->RefreshBlocking());
    epoch = std::max(epoch, e);
  }
  return epoch;
}

std::vector<storage::SnapshotEngineState> Session::CaptureEngineStates()
    const {
  // Sorted by cache key so identical sessions write byte-identical
  // snapshots (the unordered_map's iteration order is not stable).
  std::map<std::string, const core::ProbeEngine*> ordered;
  {
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    for (const auto& [key, engine] : engines_) {
      ordered.emplace(key, engine.get());
    }
  }
  std::vector<storage::SnapshotEngineState> states;
  states.reserve(ordered.size());
  for (const auto& [key, engine] : ordered) {
    storage::SnapshotEngineState state;
    state.base_sql = engine->base_query().ToSql();
    state.key_column = engine->key_column();
    state.image = engine->CaptureSnapshotImage();
    states.push_back(std::move(state));
  }
  return states;
}

Status Session::AttachStorage(const std::string& dir,
                              const storage::StorageOptions& options) {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  if (store_ != nullptr) {
    return Status::InvalidArgument("session already has storage attached");
  }
  if (owned_db_ == nullptr) {
    return Status::InvalidArgument(
        "AttachStorage requires a session that owns its database (the "
        "store truncates the mutation journal, which other consumers of a "
        "borrowed database would not survive)");
  }
  // Catch every engine up so the captured images all cover the same
  // journal sequence as the snapshot. Blocking: a deferred suffix would
  // leave an engine cursor behind the checkpoint sequence.
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, RefreshAllBlocking());
  (void)epoch;
  HYPRE_ASSIGN_OR_RETURN(std::unique_ptr<storage::EngineStore> store,
                         storage::EngineStore::Open(dir, options));
  if (store->HasSnapshot()) {
    return Status::InvalidArgument(
        "storage dir '" + dir + "' already holds a snapshot; open it with "
        "Session::OpenFromSnapshot, or point AttachStorage at a fresh "
        "directory (the initial checkpoint would overwrite the existing "
        "durable state)");
  }
  Status st = store->InitialCheckpoint(owned_db_.get(), CaptureEngineStates());
  if (!st.ok()) return st;
  store_ = std::move(store);
  return Status::OK();
}

Status Session::SaveSnapshot() {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "session has no storage attached (AttachStorage first)");
  }
  // An explicit snapshot must cover everything: wait out any background
  // write, retire its snapshot, then checkpoint synchronously. The refresh
  // is blocking — every engine's journal suffix must be APPLIED before its
  // image is captured, so this waits for in-flight readers to drain.
  HYPRE_RETURN_NOT_OK(DrainBackgroundCheckpoint());
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, RefreshAllBlocking());
  (void)epoch;
  return store_->WriteCheckpoint(owned_db_.get(), CaptureEngineStates());
}

Status Session::CommitJournal() {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "session has no storage attached (AttachStorage first)");
  }
  return store_->CommitJournal(*db_);
}

Status Session::FinishPublishedCheckpoint() {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    if (!published_pending_) return Status::OK();
    published_pending_ = false;
    seq = published_seq_;
  }
  telemetry::TraceSpan span("storage", "checkpoint_retire");
  store_->NoteSnapshotPublished(seq);
  // The rotation re-spills every committed record past the snapshot into
  // the fresh log before the rename, so this is safe at any time on the
  // request path — see storage::EngineStore::RotateWalRespill.
  HYPRE_RETURN_NOT_OK(store_->RotateWalRespill(*db_));
  // Engine cursors were all >= seq when the blob was captured and only
  // advance; the journal prefix below seq has no remaining consumer.
  owned_db_->mutable_journal()->TruncateTo(seq);
  return Status::OK();
}

Status Session::DrainBackgroundCheckpoint() {
  {
    std::unique_lock<std::mutex> lock(checkpoint_mu_);
    checkpoint_cv_.wait(lock, [&] { return !checkpoint_inflight_; });
    if (!checkpoint_error_.ok()) {
      Status error = checkpoint_error_;
      checkpoint_error_ = Status::OK();
      return error;
    }
  }
  return FinishPublishedCheckpoint();
}

void Session::EnsureCheckpointThread() {
  if (checkpoint_thread_.joinable()) return;
  checkpoint_thread_ = std::thread([this] { CheckpointWorkerMain(); });
}

void Session::CheckpointWorkerMain() {
  std::unique_lock<std::mutex> lock(checkpoint_mu_);
  for (;;) {
    checkpoint_cv_.wait(lock, [&] {
      return checkpoint_shutdown_ || checkpoint_job_.has_value();
    });
    if (checkpoint_shutdown_) return;
    PendingCheckpoint job = std::move(*checkpoint_job_);
    checkpoint_job_.reset();
    lock.unlock();

    // File I/O only: the worker never touches the database, the engines,
    // or the WAL writer. The request thread owns all of those.
#if HYPRE_TELEMETRY_ENABLED
    auto start = std::chrono::steady_clock::now();
#endif
    Status published = store_->PublishSnapshotBlob(job.blob);
    HYPRE_TELEMETRY_STMT(
        telemetry::MetricsRegistry::Global()
            .GetHistogram("hypre_storage_checkpoint_duration_ms", "storage",
                          "Milliseconds per checkpoint (spill through "
                          "rotation)")
            ->Record(uint64_t(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
        telemetry::MetricsRegistry::Global()
            .GetCounter("hypre_storage_checkpoints_total", "storage",
                        "Checkpoints published (snapshot + WAL rotation)")
            ->Increment();
        telemetry::MetricsRegistry::Global()
            .GetCounter("hypre_storage_snapshot_bytes_total", "storage",
                        "Encoded snapshot bytes written")
            ->Add(job.blob.size()));

    lock.lock();
    if (published.ok()) {
      published_pending_ = true;
      published_seq_ = job.seq;
    } else {
      checkpoint_error_ = published;
    }
    checkpoint_inflight_ = false;
    checkpoint_cv_.notify_all();
  }
}

Status Session::MaybeAutoCheckpoint() {
  if (store_ == nullptr) return Status::OK();
  // Requests race into here; the policy itself (finish/threshold/encode/
  // enqueue) must run one at a time or two threads would encode the same
  // snapshot and double-rotate the WAL.
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  // A background failure is surfaced on the next request — the policy is
  // best-effort, but silent failure would let the WAL grow unbounded.
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    if (!checkpoint_error_.ok()) {
      Status error = checkpoint_error_;
      checkpoint_error_ = Status::OK();
      return error;
    }
  }
  HYPRE_RETURN_NOT_OK(FinishPublishedCheckpoint());
  uint64_t threshold = store_->options().auto_checkpoint_mutations;
  if (threshold == 0) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    if (checkpoint_inflight_) {
      // One snapshot at a time; the threshold check re-fires next request.
      HYPRE_TELEMETRY_STMT(
          telemetry::MetricsRegistry::Global()
              .GetCounter("hypre_storage_checkpoint_skipped_total", "storage",
                          "Auto-checkpoints skipped (one already in flight)")
              ->Increment());
      return Status::OK();
    }
  }
  uint64_t pending = db_->journal().sequence() - store_->snapshot_sequence();
  if (pending < threshold) return Status::OK();

  telemetry::TraceSpan span("storage", "checkpoint_prepare");
  // Durability point and blob capture stay on the request path. The
  // refresh is NON-blocking: with readers pinned it defers, and a deferred
  // suffix means that engine's cursor sits behind the sequence this
  // checkpoint would cover — truncating the journal to it would strand the
  // engine. Skip the round and let the threshold re-fire on a later
  // request once the readers drain; the WAL keeps everything durable
  // meanwhile.
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, Refresh());
  (void)epoch;
  {
    std::shared_lock<std::shared_mutex> lock(engines_mu_);
    for (const auto& [key, engine] : engines_) {
      if (engine->has_deferred_refresh()) {
        HYPRE_TELEMETRY_STMT(
            telemetry::MetricsRegistry::Global()
                .GetCounter(
                    "hypre_storage_checkpoint_deferred_total", "storage",
                    "Auto-checkpoint rounds skipped because an engine's "
                    "refresh was deferred by pinned readers")
                ->Increment());
        return Status::OK();
      }
    }
  }
  HYPRE_RETURN_NOT_OK(store_->CommitJournal(*db_));
  uint64_t seq = db_->journal().sequence();
  std::string blob =
      storage::EncodeSnapshot(*owned_db_, seq, CaptureEngineStates());
  HYPRE_TELEMETRY_STMT(
      telemetry::MetricsRegistry::Global()
          .GetCounter("hypre_storage_checkpoint_queued_total", "storage",
                      "Snapshot writes handed to the background worker")
          ->Increment());
  EnsureCheckpointThread();
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    checkpoint_job_ = PendingCheckpoint{std::move(blob), seq};
    checkpoint_inflight_ = true;
  }
  checkpoint_cv_.notify_all();
  return Status::OK();
}

Result<std::unique_ptr<Session>> Session::OpenFromSnapshot(
    const std::string& dir, const storage::StorageOptions& options) {
  HYPRE_ASSIGN_OR_RETURN(std::unique_ptr<storage::EngineStore> store,
                         storage::EngineStore::Open(dir, options));
  HYPRE_ASSIGN_OR_RETURN(storage::SnapshotContents contents,
                         store->Recover());
  auto session = std::make_unique<Session>(std::move(contents.db));
  session->store_ = std::move(store);
  for (const storage::SnapshotEngineState& state : contents.engines) {
    // The persisted base SQL round-trips through the SELECT parser into
    // the same Query (and therefore the same engine cache key) it was
    // rendered from.
    auto stmt = sqlparse::ParseSelect(state.base_sql);
    if (!stmt.ok()) {
      return Status::Internal("snapshot engine base query '" +
                              state.base_sql +
                              "' failed to parse: " + stmt.status().message());
    }
    HYPRE_ASSIGN_OR_RETURN(
        core::ProbeEngine * engine,
        session->GetEngine(stmt.value().query, state.key_column));
    HYPRE_RETURN_NOT_OK(engine->RestoreSnapshotImage(state.image));
  }
  // Consume the replayed write-ahead-log tail so every restored engine is
  // current with the recovered database before the first request.
  HYPRE_ASSIGN_OR_RETURN(uint64_t epoch, session->Refresh());
  (void)epoch;
  return session;
}

Result<EnumerationResult> Session::Enumerate(
    const EnumerationRequest& request) {
  // Admission gate: with default (unlimited) caps this is one uncontended
  // mutex round-trip; configured caps queue the request FIFO here, BEFORE
  // it takes an epoch pin or touches any engine state. A bounded queue or
  // an expired admission timeout sheds the request with
  // Status::Unavailable instead of blocking (the server's 429).
  std::optional<std::chrono::steady_clock::time_point> admission_deadline;
  if (request.admission_timeout_ms > 0) {
    admission_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(request.admission_timeout_ms);
  }
  HYPRE_ASSIGN_OR_RETURN(
      AdmissionScheduler::Ticket ticket,
      scheduler_.TryAdmit(request.probe_budget, admission_deadline));
  (void)ticket;
  EnumerationResult result;
#if HYPRE_TELEMETRY_ENABLED
  if (request.trace) {
    telemetry::Trace trace;
    {
      // The target installs a thread_local, so every TraceSpan opened under
      // EnumerateInternal — engine, prober, delta, storage — lands in this
      // request's buffer with no plumbing. Both scopes must close before
      // the trace moves into the result (open spans hold its address).
      telemetry::ScopedTraceTarget target(&trace);
      telemetry::TraceSpan root("api", "enumerate");
      HYPRE_RETURN_NOT_OK(EnumerateInternal(request, &result));
    }
    result.trace = std::move(trace);
    return result;
  }
#endif
  HYPRE_RETURN_NOT_OK(EnumerateInternal(request, &result));
  return result;
}

Status Session::EnumerateInternal(const EnumerationRequest& request,
                                  EnumerationResult* result) {
#if HYPRE_TELEMETRY_ENABLED
  auto request_start = std::chrono::steady_clock::now();
#endif
  HYPRE_ASSIGN_OR_RETURN(const Algorithm* algorithm,
                         FindAlgorithm(request.algorithm));
  HYPRE_ASSIGN_OR_RETURN(core::ProbeEngine * engine,
                         GetEngine(request.base_query, request.key_column));

  // Auto-checkpoint BEFORE the epoch is pinned: a checkpoint refreshes
  // every engine, and doing that under this request's own pin would only
  // defer it again.
  HYPRE_RETURN_NOT_OK(MaybeAutoCheckpoint());

  // Pin the epoch: the whole run probes one consistent snapshot. A
  // refresh-first pin (request.refresh, the default) drains the mutation
  // journal up front — unless other readers are already pinned, in which
  // case the suffix defers and this request joins them on the live epoch.
  // While the pin is held a concurrent Refresh cannot resize bitmaps out
  // from under the algorithm's handles.
  HYPRE_ASSIGN_OR_RETURN(core::ProbeEngine::EpochPin pin,
                         engine->PinEpoch(request.refresh));
  result->epoch = pin.epoch();

  // Per-request statistics: a thread_local collector, installed for the
  // algorithm run (its leaf prefetch included), receives every probe
  // counted on this thread and folds the totals back into the engine's
  // lifetime counters when it goes out of scope. (Snapshot subtraction
  // against the engine's lifetime counters would double-count the moment
  // two requests share an engine.)
  core::ProbeStats request_stats;
  core::ScopedProbeStatsCollector stats_collector(engine, &request_stats);

  // Every algorithm requires the list sorted descending by intensity; sort
  // a copy so callers can hand preferences in any order.
  std::vector<core::PreferenceAtom> atoms = request.preferences;
  core::SortByIntensityDesc(&atoms);

  core::ProbeBudget budget(request.probe_budget);
  core::EnumerationControl control;
  if (request.probe_budget > 0) control.budget = &budget;
  if (request.checkpoint) control.checkpoint = &request.checkpoint;
  control.truncated = &result->truncated;

  {
    telemetry::TraceSpan span("api", "run_algorithm");
    HYPRE_RETURN_NOT_OK(
        algorithm->run(*engine, atoms, request, control, result));
  }
  result->stats = request_stats;
  HYPRE_TELEMETRY_STMT(FoldRequestStats(
      result->stats,
      uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - request_start)
                   .count())));
  return Status::OK();
}

}  // namespace api
}  // namespace hypre
