#include "hypre/algorithms/partially_combine_all.h"

#include <set>

namespace hypre {
namespace core {

namespace {

/// Probes one generation of combinations as a single batch frontier and
/// appends a record per combination in generation order. The budget admits
/// a generation-order prefix BEFORE probing, so a budgeted run emits a
/// prefix of the unbudgeted records; sets `*budget_dry` when the generation
/// did not fully fit.
Status RunGeneration(const Combiner& combiner, const BatchProber& batch,
                     const EnumerationControl& control,
                     std::vector<Combination> generation,
                     std::vector<CombinationRecord>* records,
                     std::vector<Combination>* queries_ran,
                     bool* budget_dry) {
  size_t admitted = control.Admit(generation.size());
  if (admitted < generation.size()) {
    *budget_dry = true;
    generation.resize(admitted);
    if (generation.empty()) return Status::OK();
  }
  HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                         batch.CountBatch(generation));
  for (size_t g = 0; g < generation.size(); ++g) {
    CombinationRecord record;
    record.num_predicates = generation[g].NumPredicates();
    record.num_tuples = counts[g];
    record.intensity = combiner.ComputeIntensity(generation[g]);
    record.predicate_sql = combiner.ToSql(generation[g]);
    record.combination = generation[g];
    control.Emit(record);
    records->push_back(std::move(record));
    queries_ran->push_back(std::move(generation[g]));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<CombinationRecord>> PartiallyCombineAll(
    const std::vector<PreferenceAtom>& preferences,
    const QueryEnhancer& enhancer, const ProbeOptions& options,
    const EnumerationControl& control) {
  Combiner combiner(&preferences);
  CombinationProber prober(&combiner, &enhancer.probe_engine());
  BatchProber batch(&prober, options);
  if (!preferences.empty()) HYPRE_RETURN_NOT_OK(prober.PrefetchAll());
  std::vector<CombinationRecord> records;
  std::vector<Combination> queries_ran;
  std::set<std::string> attributes_used;
  bool budget_dry = false;

  auto run = [&](std::vector<Combination> generation) {
    return RunGeneration(combiner, batch, control, std::move(generation),
                         &records, &queries_ran, &budget_dry);
  };

  for (size_t i = 0; i < preferences.size() && !budget_dry; ++i) {
    const std::string& attr = preferences[i].attribute_key;
    if (queries_ran.empty()) {
      HYPRE_RETURN_NOT_OK(run({combiner.Single(i)}));
      attributes_used.insert(attr);
      continue;
    }
    if (attributes_used.count(attr) == 0) {
      // New attribute: AND-extend every combination created so far — one
      // generation, one batch.
      std::vector<Combination> generation;
      generation.reserve(queries_ran.size());
      for (const Combination& c : queries_ran) {
        generation.push_back(combiner.AndExtend(c, i));
      }
      HYPRE_RETURN_NOT_OK(run(std::move(generation)));
      attributes_used.insert(attr);
      continue;
    }
    // Attribute already used.
    const Combination last = queries_ran.back();
    if (!last.HasAnd()) {
      // Single-attribute combination so far: OR into it only.
      HYPRE_RETURN_NOT_OK(run({combiner.OrInto(last, i)}));
      continue;
    }
    // Mixed combination: AND-extend earlier combinations that do not
    // constrain this attribute, then OR into the latest combination.
    std::vector<Combination> generation;
    for (const Combination& c : queries_ran) {
      if (!c.ContainsAttribute(attr)) {
        generation.push_back(combiner.AndExtend(c, i));
      }
    }
    generation.push_back(combiner.OrInto(last, i));
    HYPRE_RETURN_NOT_OK(run(std::move(generation)));
  }
  return records;
}

}  // namespace core
}  // namespace hypre
