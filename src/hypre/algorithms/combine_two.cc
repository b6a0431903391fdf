#include "hypre/algorithms/combine_two.h"

namespace hypre {
namespace core {

Result<std::vector<CombinationRecord>> CombineTwo(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, CombineSemantics semantics,
    const EnumerationControl& control) {
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &engine);
  std::vector<CombinationRecord> records;
  if (preferences.size() < 2) return records;

  // Build the whole C(N,2) frontier in generation order, then evaluate it as
  // one batch.
  std::vector<Combination> frontier;
  frontier.reserve(preferences.size() * (preferences.size() - 1) / 2);
  for (size_t i = 0; i + 1 < preferences.size(); ++i) {
    for (size_t j = i + 1; j < preferences.size(); ++j) {
      Combination base = combiner.Single(i);
      bool same_attribute =
          preferences[i].attribute_key == preferences[j].attribute_key;
      if (semantics == CombineSemantics::kAndOr && same_attribute) {
        frontier.push_back(combiner.OrInto(base, j));
      } else {
        frontier.push_back(combiner.AndExtend(base, j));
      }
    }
  }

  HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  HYPRE_RETURN_NOT_OK(ProbeGeneration(combiner, prober, control,
                                      /*applicable_only=*/false, &frontier,
                                      &records)
                          .status());
  return records;
}

}  // namespace core
}  // namespace hypre
