// Unified enumeration API: one request/response shape for all six
// combination algorithms.
//
// The dissertation's algorithms (§5.3-§5.5) are six free functions (and
// the Peps class), each over a ProbeEngine the caller assembles. This
// layer turns algorithm choice into a REQUEST PARAMETER:
//
//   EnumerationRequest{algorithm="peps", base_query, key_column,
//                      preferences, k, probe_budget, checkpoint, ...}
//         │
//         ▼
//   Session::Enumerate ── FindAlgorithm: row of kAlgorithms ("bias-random",
//                         "combine-two", "exhaustive",
//                         "partially-combine-all", "peps", "ta") ── cached
//                         ProbeEngine per (base query, key column) ── epoch
//                         pinned via Refresh() ── row.run: one call into
//                         the algorithm core, which builds its one
//                         CombinationProber (TA reads the engine directly)
//         │
//         ▼
//   EnumerationResult{records / top_k, ProbeStats delta, epoch, truncated}
//
// The table is fixed: one {name, description, run} row per algorithm, and
// each run is a single call into the algorithm's core, which takes the
// budget/checkpoint control itself. A probe BUDGET bounds the probe spend
// with a truncation verdict (the admission knob a multi-tenant deployment
// meters requests with); a CHECKPOINT, asked at every budget charge, may
// stop the run the same way. With no budget and a checkpoint that always
// goes on, results are byte-identical to calling the algorithm core
// directly (enforced by tests/test_session_api.cc).
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/common.h"
#include "hypre/algorithms/peps.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/ranking.h"
#include "hypre/telemetry/trace.h"
#include "reldb/executor.h"

namespace hypre {
namespace api {

/// \brief One enumeration request: everything that was a compile-time call
/// site before — algorithm, query, preferences, per-algorithm knobs,
/// budget, checkpoint — as data.
struct EnumerationRequest {
  /// Algorithm name, a row of kAlgorithms: "bias-random", "combine-two",
  /// "exhaustive", "partially-combine-all", "peps", or "ta".
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

  /// Probe budget: maximum combination probes (pair entries, frontier
  /// members, expansion candidates, bias-random checks, TA sorted-access
  /// rounds) this request may spend. 0 = unlimited. A budgeted run stops
  /// early with EnumerationResult::truncated set; for combine-two,
  /// partially-combine-all and bias-random the records are a prefix of the
  /// unbudgeted run's records, for exhaustive a subset.
  /// The budget meters per-request probe work only: leaf-bitmap
  /// materialization is engine-lifetime shared warm-up (one DB query per
  /// DISTINCT leaf, reused by every later request over the same query
  /// spec) and is reported in stats but not charged against the budget.
  size_t probe_budget = 0;

  /// Asked on the request thread at every budget charge, ticket and epoch
  /// pin held. Returning false stops the run as a dry budget would (what
  /// was probed comes back, `truncated` set). Empty = always go on.
  core::Checkpoint checkpoint;

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
  /// per timed phase (engine cache, refresh, prefetch, batch passes, WAL
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
  /// True when the probe budget ran dry, or the checkpoint stopped the run,
  /// before the algorithm finished. The output is deterministic but
  /// incomplete: a prefix of the unbounded run's records for "combine-two",
  /// "partially-combine-all" and "bias-random", a subset that may order
  /// differently for "exhaustive", "peps" and "ta" (which sort or re-rank
  /// before returning) — re-run with a larger budget rather than paginating.
  bool truncated = false;
  /// "bias-random" extras: probes that returned >= 1 tuple / nothing.
  size_t valid_checks = 0;
  size_t invalid_checks = 0;
  /// Structured span timeline (empty unless EnumerationRequest::trace).
  telemetry::Trace trace;
};

/// \brief One row of the algorithm table: a name a request may give, a
/// one-line description for listings, and the call that runs it.
struct Algorithm {
  std::string_view name;
  std::string_view description;
  /// Runs the algorithm core over the session's cached `engine` and the
  /// intensity-sorted `preferences`, with the request's knobs and the
  /// budget/checkpoint `control`.
  /// Fills result->records / result->top_k and the bias-random tallies; the
  /// session owns stats, epoch and truncated.
  Status (*run)(const core::ProbeEngine& engine,
                const std::vector<core::PreferenceAtom>& preferences,
                const EnumerationRequest& request,
                const core::EnumerationControl& control,
                EnumerationResult* result);
};

/// \brief The six algorithms, sorted by name. Session::Enumerate reaches
/// every algorithm through this table and nothing else.
extern const std::array<Algorithm, 6> kAlgorithms;

/// \brief The table row named `name`. Unknown names fail with
/// InvalidArgument listing the known names.
Result<const Algorithm*> FindAlgorithm(std::string_view name);

}  // namespace api
}  // namespace hypre
