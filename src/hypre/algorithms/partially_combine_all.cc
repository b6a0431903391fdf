#include "hypre/algorithms/partially_combine_all.h"

#include <set>

namespace hypre {
namespace core {

Result<std::vector<CombinationRecord>> PartiallyCombineAll(
    const std::vector<PreferenceAtom>& preferences,
    const ProbeEngine& engine, const EnumerationControl& control) {
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &engine);
  if (!preferences.empty()) HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  std::vector<CombinationRecord> records;  // one per query ran, in order
  std::set<std::string> attributes_used;
  bool budget_dry = false;

  auto run = [&](std::vector<Combination> generation) -> Status {
    HYPRE_ASSIGN_OR_RETURN(budget_dry,
                           ProbeGeneration(combiner, prober, control,
                                           /*applicable_only=*/false,
                                           &generation, &records));
    return Status::OK();
  };

  for (size_t i = 0; i < preferences.size() && !budget_dry; ++i) {
    const std::string& attr = preferences[i].attribute_key;
    if (records.empty()) {
      HYPRE_RETURN_NOT_OK(run({combiner.Single(i)}));
      attributes_used.insert(attr);
      continue;
    }
    if (attributes_used.count(attr) == 0) {
      // New attribute: AND-extend every combination created so far — one
      // generation, one batch.
      std::vector<Combination> generation;
      generation.reserve(records.size());
      for (const CombinationRecord& record : records) {
        generation.push_back(combiner.AndExtend(record.combination, i));
      }
      HYPRE_RETURN_NOT_OK(run(std::move(generation)));
      attributes_used.insert(attr);
      continue;
    }
    // Attribute already used. `last` is read before run() appends.
    const Combination& last = records.back().combination;
    if (!last.HasAnd()) {
      // Single-attribute combination so far: OR into it only.
      HYPRE_RETURN_NOT_OK(run({combiner.OrInto(last, i)}));
      continue;
    }
    // Mixed combination: AND-extend earlier combinations that do not
    // constrain this attribute, then OR into the latest combination.
    std::vector<Combination> generation;
    for (const CombinationRecord& record : records) {
      if (!record.combination.ContainsAttribute(attr)) {
        generation.push_back(combiner.AndExtend(record.combination, i));
      }
    }
    generation.push_back(combiner.OrInto(last, i));
    HYPRE_RETURN_NOT_OK(run(std::move(generation)));
  }
  return records;
}

}  // namespace core
}  // namespace hypre
