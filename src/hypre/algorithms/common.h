// Shared result record and run controls for the combination-enumeration
// algorithms.
//
// Every algorithm in this directory consumes a preference list sorted
// descending by intensity and emits, per combination probed,
//   <#predicates, #tuples returned, combined intensity>
// exactly as the dissertation's experiment harness records (§5.3).
//
// EnumerationControl is the per-run control plane the unified API
// (src/hypre/api/) threads through every algorithm: a probe budget and a
// checkpoint, both enforced where a run charges its probes, and the flag a
// run stopped short raises. Budgets are charged before probing, so
// combine-two, partially-combine-all and bias-random return a prefix of the
// unbudgeted run's records, and exhaustive (which sorts them) a subset.
//
// Every algorithm counts through CombinationProber's batch methods
// (batch_prober.h); there is no per-combination scalar path. The tests
// check each returned record's num_tuples against an independent oracle
// (tests/probe_oracle.h).
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/batch_prober.h"
#include "hypre/combination.h"

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

/// \brief Answers "may the run go on?" at each budget charge. Returning
/// false stops the run as a dry budget would: nothing more is admitted and
/// the truncation flag is raised.
using Checkpoint = std::function<bool()>;

/// \brief A bounded probe allowance. Combination probes (pair-table
/// entries, frontier members, expansion candidates, bias-random checks, TA
/// sorted-access rounds) are charged against it; once spent, enumeration
/// stops with a truncation verdict instead of running to completion.
class ProbeBudget {
 public:
  /// `limit` == 0 means unlimited.
  explicit ProbeBudget(size_t limit = 0) : limit_(limit) {}

  bool limited() const { return limit_ > 0; }
  size_t spent() const { return spent_; }
  size_t remaining() const {
    return limited() ? limit_ - spent_ : ~size_t{0};
  }

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

/// \brief Per-run control plane: optional probe budget, optional
/// checkpoint, and the truncation flag a stopped run raises. The default
/// (all null) runs unbounded to completion, so direct call sites pass `{}`.
struct EnumerationControl {
  ProbeBudget* budget = nullptr;  // null = unlimited
  const Checkpoint* checkpoint = nullptr;  // null = always go on
  bool* truncated = nullptr;  // set when a run stops early

  /// \brief Asks the checkpoint, then admits up to `n` probes; raises the
  /// truncation flag when fewer than `n` fit. A checkpoint that says stop
  /// admits nothing. Algorithms probe exactly the admitted prefix of the
  /// pending generation and then stop.
  size_t Admit(size_t n) const {
    size_t admitted = n;
    if (checkpoint != nullptr && *checkpoint && !(*checkpoint)()) {
      admitted = 0;
    } else if (budget != nullptr) {
      admitted = budget->Admit(n);
    }
    if (admitted < n && truncated != nullptr) *truncated = true;
    return admitted;
  }
};

/// \brief The record of a probed `combination` that returned `num_tuples`.
CombinationRecord MakeRecord(const Combiner& combiner,
                             Combination combination, size_t num_tuples);

/// \brief The generation probe of the generation-ordered algorithms
/// (exhaustive, combine-two, partially-combine-all). Admits a
/// generation-order prefix of `*generation` through the control's budget
/// BEFORE probing — so a budgeted run records a prefix of the unbudgeted
/// records — counts it in one CountBatch pass, then appends one record per
/// probed combination in generation order (only the applicable ones when
/// `applicable_only`); `*generation` is left empty. Returns true when the
/// run was stopped before the whole generation was admitted.
Result<bool> ProbeGeneration(const Combiner& combiner,
                             const CombinationProber& prober,
                             const EnumerationControl& control,
                             bool applicable_only,
                             std::vector<Combination>* generation,
                             std::vector<CombinationRecord>* records);

}  // namespace core
}  // namespace hypre
