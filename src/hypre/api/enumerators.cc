// The algorithm table behind the unified API.
//
// Each row is one call into an algorithm core; the budget/checkpoint
// control plane is forwarded into the algorithm, which enforces it at
// generation granularity (see hypre/algorithms/common.h), and prefetches
// its own leaves. Everything session-level — engine caching, epoch
// pinning, statistics deltas — is the Session's job, not the table's.
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
using core::ProbeEngine;

const std::array<Algorithm, 6> kAlgorithms = {{
    {"bias-random",
     "intensity-biased random chain growth (Algorithm 5; deterministic per "
     "seed)",
     [](const ProbeEngine& engine,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           core::BiasRandomResult run,
           core::BiasRandomSelection(preferences, engine, request.seed,
                                     control));
       result->records = std::move(run.records);
       result->valid_checks = run.valid_checks;
       result->invalid_checks = run.invalid_checks;
       return Status::OK();
     }},
    {"combine-two",
     "all C(N,2) preference pairs (Algorithms 2/3; AND or AND/OR)",
     [](const ProbeEngine& engine,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->records,
           core::CombineTwo(preferences, engine, request.semantics,
                            control));
       return Status::OK();
     }},
    {"exhaustive",
     "every non-empty AND subset (2^N - 1 probes; reference oracle)",
     [](const ProbeEngine& engine,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->records,
           core::ExhaustiveAndCombinations(
               preferences, engine, request.max_exhaustive_n, control));
       return Status::OK();
     }},
    {"partially-combine-all",
     "growing mixed AND/OR clauses, one preference at a time (Algorithm 4)",
     [](const ProbeEngine& engine,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& /*request*/,
        const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->records,
           core::PartiallyCombineAll(preferences, engine, control));
       return Status::OK();
     }},
    {"peps",
     "pair-table-pruned expansion (Algorithm 6); k > 0 ranks tuples",
     [](const ProbeEngine& engine,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       core::Peps peps(&preferences, &engine);
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
     [](const ProbeEngine& engine,
        const std::vector<PreferenceAtom>& preferences,
        const EnumerationRequest& request, const EnumerationControl& control,
        EnumerationResult* result) -> Status {
       HYPRE_ASSIGN_OR_RETURN(
           result->top_k,
           core::ThresholdAlgorithm(preferences, engine, request.k,
                                    control));
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
