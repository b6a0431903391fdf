// Unified enumeration API: one request/response shape for all six
// combination algorithms.
//
// The dissertation's algorithms (§5.3-§5.5) grew up as six divergent entry
// points — free functions, the Peps class, TA's graded-list pipeline — each
// hand-wired to a QueryEnhancer the caller had to assemble. This layer
// turns algorithm choice into a REQUEST PARAMETER:
//
//   EnumerationRequest{algorithm="peps", base_query, key_column,
//                      preferences, k, probe_budget, sinks, ...}
//         │
//         ▼
//   Session::Enumerate ── registry lookup ("exhaustive", "combine-two",
//                         "partially-combine-all", "bias-random", "peps",
//                         "ta") ── cached ProbeEngine per (base query, key
//                         column) ── epoch pinned via Refresh() ── run
//         │
//         ▼
//   EnumerationResult{records / top_k, ProbeStats delta, epoch, truncated}
//
// Two capabilities exist only on this path: a probe BUDGET (bounded probe
// spend with a truncation verdict — the admission knob a multi-tenant
// deployment meters requests with) and STREAMING sinks (records / ranked
// tuples emitted as they are produced). With no budget, results are
// byte-identical to the direct algorithm entry points (enforced by
// tests/test_session_api.cc).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/common.h"
#include "hypre/algorithms/peps.h"
#include "hypre/batch_prober.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/query_enhancement.h"
#include "hypre/ranking.h"
#include "hypre/telemetry/trace.h"
#include "reldb/executor.h"

namespace hypre {
namespace api {

/// \brief One enumeration request: everything that was a compile-time call
/// site before — algorithm, query, preferences, per-algorithm knobs, probe
/// options, budget, sinks — as data.
struct EnumerationRequest {
  /// Registry name: "exhaustive", "combine-two", "partially-combine-all",
  /// "bias-random", "peps", or "ta".
  std::string algorithm;
  /// Query skeleton the probes run against (FROM/JOINs; an existing WHERE
  /// is a hard constraint every probe keeps).
  reldb::Query base_query;
  /// Tuple identity column (e.g. "dblp.pid"); with base_query it keys the
  /// Session's ProbeEngine cache.
  std::string key_column;
  /// Preference atoms in ANY order; the session sorts a copy descending by
  /// intensity (the precondition every algorithm shares).
  std::vector<core::PreferenceAtom> preferences;

  /// Top-K size for the ranking algorithms ("peps", "ta"). For "peps",
  /// k == 0 enumerates combination records and k > 0 ranks tuples (use
  /// SIZE_MAX for "all tuples"); "ta" always ranks (k == 0 = unlimited).
  size_t k = 0;
  /// "combine-two": AND vs AND/OR pair semantics.
  core::CombineSemantics semantics = core::CombineSemantics::kAnd;
  /// "peps": complete vs approximate seeding.
  core::PepsMode mode = core::PepsMode::kComplete;
  /// "bias-random": draw seed (runs are deterministic per seed).
  uint64_t seed = 0;
  /// "exhaustive": refuse preference lists longer than this (2^N guard).
  /// 64 or more preferences are refused whatever this says.
  size_t max_exhaustive_n = 20;

  /// Batch-probe knobs, threaded through every algorithm.
  core::ProbeOptions probe_options;
  /// Probe budget: maximum combination probes (pair entries, frontier
  /// members, expansion candidates, bias-random checks, TA sorted-access
  /// rounds) this request may spend. 0 = unlimited. A budgeted run stops
  /// early with EnumerationResult::truncated set; for exhaustive,
  /// combine-two, partially-combine-all and bias-random the streamed
  /// records are a prefix of the unbudgeted run's stream.
  /// The budget meters per-request probe work only: leaf-bitmap
  /// materialization is engine-lifetime shared warm-up (one DB query per
  /// DISTINCT leaf, reused by every later request over the same query
  /// spec) and is reported in stats but not charged against the budget.
  size_t probe_budget = 0;

  /// Streaming: called per combination record in probe order, before any
  /// final intensity sort.
  core::RecordSink record_sink;
  /// Streaming: called per ranked tuple in rank order ("peps" with k > 0,
  /// "ta").
  core::TupleSink tuple_sink;

  /// Pin the engine to the current database state before running: the
  /// session applies all journal entries recorded since the engine's last
  /// Refresh (no-op when nothing mutated) and reports the epoch probed.
  bool refresh = true;

  /// Admission wait bound: when > 0, the request waits at most this long in
  /// the session's AdmissionScheduler queue before being shed with a typed
  /// Status::Unavailable (the HTTP layer's 429). 0 = wait indefinitely.
  /// Either way the scheduler's max_queue_depth bound applies — a request
  /// that would queue behind a full line is rejected immediately.
  uint64_t admission_timeout_ms = 0;

  /// Collect a per-request trace: EnumerationResult::trace gets one span
  /// per timed phase (enhancer cache, refresh, prefetch, batch passes, WAL
  /// and checkpoint work) with parent/child nesting. Off by default — the
  /// probe hot path stays untouched; in a -DHYPRE_TELEMETRY=OFF build the
  /// flag is accepted but the trace comes back empty.
  bool trace = false;
};

/// \brief One enumeration response. Which payload is filled depends on the
/// algorithm: combination enumerators fill `records`; "ta" (and "peps" with
/// k > 0) fill `top_k`.
struct EnumerationResult {
  /// Combination records, in the algorithm's documented output order.
  std::vector<core::CombinationRecord> records;
  /// Ranked tuples, descending by intensity.
  std::vector<core::RankedTuple> top_k;
  /// Per-request probe statistics (engine counters after minus before).
  core::ProbeStats stats;
  /// Engine epoch the request probed (see ProbeEngine::epoch()).
  uint64_t epoch = 0;
  /// True when the probe budget ran dry before the algorithm finished.
  /// The output is deterministic but incomplete: for the
  /// generation-ordered algorithms ("exhaustive", "combine-two",
  /// "partially-combine-all", "bias-random") it is the prefix of the
  /// unbounded run's probe sequence; for "peps" and "ta" —
  /// which re-rank intermediate state (pair table, graded lists) before
  /// emitting — it is a subset that may order differently than the
  /// unbounded run, so re-run with a larger budget rather than paginating.
  bool truncated = false;
  /// "bias-random" extras: probes that returned >= 1 tuple / nothing.
  size_t valid_checks = 0;
  size_t invalid_checks = 0;
  /// Structured span timeline (empty unless EnumerationRequest::trace).
  telemetry::Trace trace;
};

/// \brief Everything an enumerator implementation receives: the session's
/// cached enhancer, the intensity-sorted preference list, the original
/// request, and the budget/sink control plane already wired to the result.
struct EnumerationContext {
  const core::QueryEnhancer* enhancer = nullptr;
  /// Sorted descending by intensity (the session sorts its own copy).
  const std::vector<core::PreferenceAtom>* preferences = nullptr;
  const EnumerationRequest* request = nullptr;
  /// The request's probe options with the session's runtime filled in: when
  /// the request names no pool and asks for more than one thread, the
  /// session injects its own persistent TaskPool here. Enumerators read
  /// THIS copy, not request->probe_options.
  core::ProbeOptions probe_options;
  core::EnumerationControl control;
};

/// \brief One algorithm behind the unified API. Implementations are
/// stateless dispatchers (per-run state lives in the Run call), so one
/// registered instance serves every session and request.
class CombinationEnumerator {
 public:
  virtual ~CombinationEnumerator() = default;

  /// \brief Registry key ("peps", "combine-two", ...).
  virtual std::string_view name() const = 0;
  /// \brief One-line description for listings (shell \algo, errors).
  virtual std::string_view description() const = 0;
  /// \brief Runs the algorithm; fills result->records / result->top_k (and
  /// the bias-random tallies). The session owns stats/epoch/truncated.
  virtual Status Run(const EnumerationContext& ctx,
                     EnumerationResult* result) const = 0;
};

/// \brief Name-keyed registry of enumerators — the dispatch point request
/// routing (and the ROADMAP's distributed-probe split) goes through.
/// Registration and lookup are mutex-guarded, so one process-wide registry
/// safely serves concurrent per-tenant sessions even if a tenant registers
/// a custom enumerator late; the returned enumerator pointers themselves
/// are stable for the registry's lifetime (entries are never removed).
class EnumeratorRegistry {
 public:
  /// \brief The process-wide registry, with the six built-in algorithms
  /// registered on first use.
  static EnumeratorRegistry& Global();

  /// \brief Registers an enumerator under its name(). Fails with
  /// AlreadyExists on a duplicate name.
  Status Register(std::unique_ptr<CombinationEnumerator> enumerator);

  /// \brief Looks up an enumerator; unknown names fail with
  /// InvalidArgument naming the registered algorithms.
  Result<const CombinationEnumerator*> Find(const std::string& name) const;

  /// \brief Registered names, sorted.
  std::vector<std::string> Names() const;

  /// \brief The registered enumerators, sorted by name (for listings).
  std::vector<const CombinationEnumerator*> Enumerators() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CombinationEnumerator>> enumerators_;
};

}  // namespace api
}  // namespace hypre
