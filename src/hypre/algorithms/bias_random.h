// Bias-Random-Selection (dissertation §5.4, Algorithm 5).
//
// Grows AND-combinations by repeatedly drawing the next preference with a
// coin flip biased toward high intensities. The experiment's point
// (Figures 35/36): without knowing which combinations are applicable, a
// randomized search wastes most of its probes on empty combinations — the
// motivation for PEPS's precomputed pair table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"

namespace hypre {
namespace core {

struct BiasRandomResult {
  /// Applicable combinations recorded (the run's "solutions").
  std::vector<CombinationRecord> records;
  /// Probes that returned at least one tuple.
  size_t valid_checks = 0;
  /// Probes that returned nothing.
  size_t invalid_checks = 0;
};

/// \brief One full pass of Algorithm 5: every preference serves once as the
/// chain start; subsequent members are drawn (without replacement) with
/// probability proportional to intensity. A chain ends — and is recorded —
/// when an extension probe comes back empty or the pool is exhausted.
/// Deterministic given `seed`. The seed generation (every candidate second
/// member of a chain start) is evaluated as one batch up front — that table
/// answers the whole Step-4 redraw loop, which is where a random search
/// burns most of its probes (Figures 35/36) — while chain extensions probe
/// the drawn candidate against an incrementally maintained chain bitmap.
///
/// `control` bounds the probe spend: every consulted check (valid or
/// invalid) charges one probe, and the run stops — truncated, the
/// in-flight chain dropped — when the budget runs dry. Checks are charged
/// as their verdicts are CONSUMED, so a budgeted run makes the same draws
/// and returns a prefix of the unbudgeted run's records, which are in
/// probe order. This is the algorithm core the "bias-random" row of
/// api::kAlgorithms calls.
Result<BiasRandomResult> BiasRandomSelection(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, uint64_t seed,
    const EnumerationControl& control = EnumerationControl{});

}  // namespace core
}  // namespace hypre
