// Tuple ranking by matched preferences (dissertation §4.6.1, Example 6).
#pragma once

#include <vector>

#include "common/status.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "reldb/value.h"

namespace hypre {
namespace core {

/// \brief A tuple key with its combined intensity.
struct RankedTuple {
  reldb::Value key;
  double intensity = 0.0;

  bool operator==(const RankedTuple& other) const {
    return key.Compare(other.key) == 0 && intensity == other.intensity;
  }
};

/// \brief Scores every tuple that matches at least one preference: the
/// tuple's combined intensity is f_and over the intensities of all the
/// preferences it matches (Example 6 / Table 9 semantics). Results are
/// sorted descending by intensity (ties by key for determinism).
///
/// This is the brute-force ground truth the Top-K algorithms are validated
/// against; it runs one probe per preference plus one evaluation per
/// (tuple, preference) pair.
Result<std::vector<RankedTuple>> ScoreTuplesByPreferences(
    const ProbeEngine& engine,
    const std::vector<PreferenceAtom>& preferences);

/// \brief Sorts ranked tuples descending by intensity, ties by key.
void SortRanked(std::vector<RankedTuple>* tuples);

}  // namespace core
}  // namespace hypre
