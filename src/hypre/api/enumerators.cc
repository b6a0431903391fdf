// The algorithm table behind the unified API.
//
// Each row is one call into an algorithm core; the budget/sink control
// plane is forwarded into the algorithm, which enforces it at generation
// granularity (see hypre/algorithms/common.h). Everything session-level —
// enhancer caching, epoch pinning, leaf prefetch, statistics deltas — is
// the Session's job, not the table's.
#include "common/string_util.h"
#include "hypre/algorithms/bias_random.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/algorithms/peps.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/api/enumeration.h"

namespace hypre {
namespace api {

using core::EnumerationControl;
using core::PreferenceAtom;
using core::QueryEnhancer;

const std::array<Algorithm, 6> kAlgorithms = {{
    {"bias-random",
     "intensity-biased random chain growth (Algorithm 5; deterministic per "
     "seed)",
     [](const QueryEnhancer& enhancer,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           core::BiasRandomResult run,
           core::BiasRandomSelection(preferences, enhancer, request.seed,
                                     request.probe_options, control));
       result->records = std::move(run.records);
       result->valid_checks = run.valid_checks;
       result->invalid_checks = run.invalid_checks;
       return Status::OK();
     }},
    {"combine-two",
     "all C(N,2) preference pairs (Algorithms 2/3; AND or AND/OR)",
     [](const QueryEnhancer& enhancer,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->records,
           core::CombineTwo(preferences, enhancer, request.semantics,
                            request.probe_options, control));
       return Status::OK();
     }},
    {"exhaustive",
     "every non-empty AND subset (2^N - 1 probes; reference oracle)",
     [](const QueryEnhancer& enhancer,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->records,
           core::ExhaustiveAndCombinations(
               preferences, enhancer, request.max_exhaustive_n,
               request.probe_options, control));
       return Status::OK();
     }},
    {"partially-combine-all",
     "growing mixed AND/OR clauses, one preference at a time (Algorithm 4)",
     [](const QueryEnhancer& enhancer,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->records,
           core::PartiallyCombineAll(preferences, enhancer,
                                     request.probe_options, control));
       return Status::OK();
     }},
    {"peps",
     "pair-table-pruned expansion (Algorithm 6); k > 0 ranks tuples",
     [](const QueryEnhancer& enhancer,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       core::Peps peps(&preferences, &enhancer, request.probe_options);
       if (request.k > 0) {
         HYPRE_ASSIGN_OR_RETURN(result->top_k,
                                peps.TopK(request.k, request.mode, control));
       } else {
         HYPRE_ASSIGN_OR_RETURN(result->records,
                                peps.GenerateOrder(request.mode, control));
       }
       return Status::OK();
     }},
    {"ta",
     "Fagin's Threshold Algorithm over per-attribute graded lists (Top-K "
     "baseline)",
     [](const QueryEnhancer& enhancer,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->top_k,
           core::ThresholdAlgorithm(preferences, enhancer.probe_engine(),
                                    request.k, control));
       return Status::OK();
     }},
}};

Result<const Algorithm*> FindAlgorithm(std::string_view name) {
  for (const Algorithm& algorithm : kAlgorithms) {
    if (algorithm.name == name) return &algorithm;
  }
  std::string known;
  for (const Algorithm& algorithm : kAlgorithms) {
    if (!known.empty()) known += ", ";
    known += algorithm.name;
  }
  return Status::InvalidArgument(StringFormat(
      "unknown algorithm '%s' (known: %s)", std::string(name).c_str(),
      known.c_str()));
}

}  // namespace api
}  // namespace hypre
