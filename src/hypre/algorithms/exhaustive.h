// Exhaustive AND-combination enumeration — the reference oracle.
//
// Enumerates every non-empty subset of the preference list as an AND
// combination (2^N - 1 of them, Eq. 5.3). Exponential by construction
// (Proposition 3 is the reason PEPS exists), so it is guarded to small N and
// used only to validate PEPS in tests and to calibrate the pruning benches.
#pragma once

#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"

namespace hypre {
namespace core {

/// \brief All applicable AND combinations (any size >= 1), descending by
/// combined intensity. Fails with InvalidArgument when N > `max_n`
/// (default 20) to prevent accidental 2^N blowups, and when N >= 64
/// whatever `max_n` says: the subset space is enumerated as a 64-bit mask.
/// The subset space is probed in fixed-size batched generations (bulk leaf
/// prefetch + blocked shard passes).
///
/// `control` bounds the probe spend (one probe per subset; the run stops —
/// truncated — once the budget is spent, keeping the applicable records
/// of the probed subsets, still intensity-sorted). This is the algorithm
/// core the "exhaustive" row of api::kAlgorithms calls.
Result<std::vector<CombinationRecord>> ExhaustiveAndCombinations(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, size_t max_n = 20,
    const EnumerationControl& control = EnumerationControl{});

}  // namespace core
}  // namespace hypre
