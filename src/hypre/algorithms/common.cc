#include "hypre/algorithms/common.h"

namespace hypre {
namespace core {

CombinationRecord MakeRecord(const Combiner& combiner,
                             Combination combination, size_t num_tuples) {
  CombinationRecord record;
  record.num_predicates = combination.NumPredicates();
  record.num_tuples = num_tuples;
  record.intensity = combiner.ComputeIntensity(combination);
  record.predicate_sql = combiner.ToSql(combination);
  record.combination = std::move(combination);
  return record;
}

Result<bool> ProbeGeneration(const Combiner& combiner,
                             const CombinationProber& prober,
                             const EnumerationControl& control,
                             bool applicable_only,
                             std::vector<Combination>* generation,
                             std::vector<CombinationRecord>* records) {
  size_t admitted = control.Admit(generation->size());
  bool budget_dry = admitted < generation->size();
  generation->resize(admitted);
  if (generation->empty()) return budget_dry;
  HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                         prober.CountBatch(*generation));
  for (size_t g = 0; g < generation->size(); ++g) {
    if (applicable_only && counts[g] == 0) continue;
    records->push_back(
        MakeRecord(combiner, std::move((*generation)[g]), counts[g]));
  }
  generation->clear();
  return budget_dry;
}

}  // namespace core
}  // namespace hypre
