#include "hypre/algorithms/exhaustive.h"

#include <algorithm>

#include "common/string_util.h"

namespace hypre {
namespace core {

Result<std::vector<CombinationRecord>> ExhaustiveAndCombinations(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, size_t max_n,
    const EnumerationControl& control) {
  size_t n = preferences.size();
  // Subsets are enumerated as bits of a uint64_t mask, so 64 or more
  // preferences cannot be represented (and 2^64 probes never finish).
  constexpr size_t kMaskBits = 64;
  if (n >= kMaskBits) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive enumeration supports at most %zu preferences, got %zu",
        kMaskBits - 1, n));
  }
  if (n > max_n) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive enumeration over %zu preferences would probe 2^%zu - 1 "
        "combinations (cap %zu)",
        n, n, max_n));
  }
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &engine);
  if (n > 0) HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  std::vector<CombinationRecord> records;

  // Probe the subset space one fixed-size generation at a time: build the
  // next chunk of combinations, evaluate them in one blocked batch pass,
  // keep the applicable ones. The budget admits each generation as a prefix
  // BEFORE it is probed, so a budgeted run probes a prefix of the
  // unbudgeted run's subsets.
  constexpr size_t kGeneration = 2048;
  std::vector<Combination> frontier;
  bool budget_dry = false;
  auto flush = [&]() -> Status {
    HYPRE_ASSIGN_OR_RETURN(budget_dry,
                           ProbeGeneration(combiner, prober, control,
                                           /*applicable_only=*/true,
                                           &frontier, &records));
    return Status::OK();
  };

  for (uint64_t mask = 1; mask < (1ULL << n) && !budget_dry; ++mask) {
    Combination combination;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) {
        combination = combination.groups.empty()
                          ? combiner.Single(i)
                          : combiner.AndExtend(combination, i);
      }
    }
    frontier.push_back(std::move(combination));
    if (frontier.size() >= kGeneration) HYPRE_RETURN_NOT_OK(flush());
  }
  HYPRE_RETURN_NOT_OK(flush());
  std::stable_sort(records.begin(), records.end(),
                   [](const CombinationRecord& a, const CombinationRecord& b) {
                     return a.intensity > b.intensity;
                   });
  return records;
}

}  // namespace core
}  // namespace hypre
