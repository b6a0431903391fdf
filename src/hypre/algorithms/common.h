// Shared result record and run controls for the combination-enumeration
// algorithms.
//
// Every algorithm in this directory consumes a preference list sorted
// descending by intensity and emits, per combination probed,
//   <#predicates, #tuples returned, combined intensity>
// exactly as the dissertation's experiment harness records (§5.3).
//
// EnumerationControl is the per-run control plane the unified API
// (src/hypre/api/) threads through every algorithm: a probe budget that
// bounds how many combination probes a run may spend (with a truncation
// verdict when it stops early), and streaming sinks that receive records /
// ranked tuples as they are produced instead of only in the final vector.
// Budgets are charged before probing (a generation/frontier is admitted as
// a prefix, a bias-random check as its verdict is consumed), so for the
// generation-ordered algorithms — exhaustive, combine-two,
// partially-combine-all and bias-random — a budgeted run's record-sink
// stream is a prefix of the unbudgeted run's stream, with the truncation
// flag set when the budget cut it short.
//
// Every algorithm counts through CombinationProber's batch methods
// (batch_prober.h); there is no per-combination scalar path. The tests
// check each emitted record's num_tuples against an independent oracle
// (tests/probe_oracle.h).
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/batch_prober.h"
#include "hypre/combination.h"
#include "hypre/ranking.h"

namespace hypre {
namespace core {

struct CombinationRecord {
  size_t num_predicates = 0;
  size_t num_tuples = 0;
  double intensity = 0.0;
  std::string predicate_sql;
  Combination combination;

  /// \brief An applicable combination returns at least one tuple
  /// (Definition 15).
  bool applicable() const { return num_tuples > 0; }
};

/// \brief Streaming consumer of combination records, called in probe order
/// as each record is produced (before any final intensity sort).
using RecordSink = std::function<void(const CombinationRecord&)>;
/// \brief Streaming consumer of ranked tuples, called in rank order as the
/// Top-K walk emits them.
using TupleSink = std::function<void(const RankedTuple&)>;

/// \brief A bounded probe allowance. Combination probes (pair-table
/// entries, frontier members, expansion candidates, bias-random checks, TA
/// sorted-access rounds) are charged against it; once spent, enumeration
/// stops with a truncation verdict instead of running to completion.
class ProbeBudget {
 public:
  /// `limit` == 0 means unlimited.
  explicit ProbeBudget(size_t limit = 0) : limit_(limit) {}

  bool limited() const { return limit_ > 0; }
  size_t limit() const { return limit_; }
  size_t spent() const { return spent_; }
  size_t remaining() const {
    return limited() ? limit_ - spent_ : ~size_t{0};
  }
  bool exhausted() const { return limited() && spent_ >= limit_; }

  /// \brief Admits up to `n` probes: charges what fits and returns how many
  /// were admitted. A return < n means the budget ran dry.
  size_t Admit(size_t n) {
    if (!limited()) return n;
    size_t admitted = std::min(n, limit_ - spent_);
    spent_ += admitted;
    return admitted;
  }

 private:
  size_t limit_ = 0;
  size_t spent_ = 0;
};

/// \brief Per-run control plane: optional probe budget, optional streaming
/// sinks, and the truncation flag a budget-stopped run raises. The default
/// (all null) reproduces the historical unbounded, collect-then-return
/// behavior, so pre-API call sites pass `{}`.
struct EnumerationControl {
  ProbeBudget* budget = nullptr;       // null = unlimited
  const RecordSink* record_sink = nullptr;
  const TupleSink* tuple_sink = nullptr;
  bool* truncated = nullptr;  // set when a run stops early on budget

  /// \brief Admits up to `n` probes; raises the truncation flag when fewer
  /// than `n` fit. Algorithms probe exactly the admitted prefix of the
  /// pending generation and then stop.
  size_t Admit(size_t n) const {
    if (budget == nullptr) return n;
    size_t admitted = budget->Admit(n);
    if (admitted < n && truncated != nullptr) *truncated = true;
    return admitted;
  }

  void Emit(const CombinationRecord& record) const {
    if (record_sink != nullptr && *record_sink) (*record_sink)(record);
  }
  void Emit(const RankedTuple& tuple) const {
    if (tuple_sink != nullptr && *tuple_sink) (*tuple_sink)(tuple);
  }
};

/// \brief The generation probe of the generation-ordered algorithms
/// (exhaustive, combine-two, partially-combine-all). Admits a
/// generation-order prefix of `*generation` through the control's budget
/// BEFORE probing — so a budgeted run emits a prefix of the unbudgeted
/// records — counts it in one CountBatch pass, then appends and streams one
/// record per probed combination in generation order (only the applicable
/// ones when `applicable_only`). Each recorded combination is also copied
/// into `*ran` when it is non-null; `*generation` is left empty. Returns true
/// when the budget ran dry before the whole generation was admitted.
Result<bool> ProbeGeneration(const Combiner& combiner,
                             const CombinationProber& prober,
                             const EnumerationControl& control,
                             bool applicable_only,
                             std::vector<Combination>* generation,
                             std::vector<CombinationRecord>* records,
                             std::vector<Combination>* ran = nullptr);

}  // namespace core
}  // namespace hypre
