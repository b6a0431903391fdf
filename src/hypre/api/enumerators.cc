// The six built-in enumerators behind the unified API, and the global
// registry they live in.
//
// Each enumerator is a thin, stateless adapter from the request/response
// shape to one algorithm's native entry point; the budget/sink control
// plane is forwarded into the algorithm, which enforces it at generation
// granularity (see hypre/algorithms/common.h). Everything session-level —
// enhancer caching, epoch pinning, leaf prefetch, statistics deltas — is
// the Session's job, not the enumerators'.
#include <algorithm>
#include <memory>

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

namespace {

class ExhaustiveEnumerator : public CombinationEnumerator {
 public:
  std::string_view name() const override { return "exhaustive"; }
  std::string_view description() const override {
    return "every non-empty AND subset (2^N - 1 probes; reference oracle)";
  }
  Status Run(const EnumerationContext& ctx,
             EnumerationResult* result) const override {
    HYPRE_ASSIGN_OR_RETURN(
        result->records,
        core::ExhaustiveAndCombinations(
            *ctx.preferences, *ctx.enhancer, ctx.request->max_exhaustive_n,
            ctx.probe_options, ctx.control));
    return Status::OK();
  }
};

class CombineTwoEnumerator : public CombinationEnumerator {
 public:
  std::string_view name() const override { return "combine-two"; }
  std::string_view description() const override {
    return "all C(N,2) preference pairs (Algorithms 2/3; AND or AND/OR)";
  }
  Status Run(const EnumerationContext& ctx,
             EnumerationResult* result) const override {
    HYPRE_ASSIGN_OR_RETURN(
        result->records,
        core::CombineTwo(*ctx.preferences, *ctx.enhancer,
                         ctx.request->semantics, ctx.probe_options,
                         ctx.control));
    return Status::OK();
  }
};

class PartiallyCombineAllEnumerator : public CombinationEnumerator {
 public:
  std::string_view name() const override { return "partially-combine-all"; }
  std::string_view description() const override {
    return "growing mixed AND/OR clauses, one preference at a time "
           "(Algorithm 4)";
  }
  Status Run(const EnumerationContext& ctx,
             EnumerationResult* result) const override {
    HYPRE_ASSIGN_OR_RETURN(
        result->records,
        core::PartiallyCombineAll(*ctx.preferences, *ctx.enhancer,
                                  ctx.probe_options, ctx.control));
    return Status::OK();
  }
};

class BiasRandomEnumerator : public CombinationEnumerator {
 public:
  std::string_view name() const override { return "bias-random"; }
  std::string_view description() const override {
    return "intensity-biased random chain growth (Algorithm 5; "
           "deterministic per seed)";
  }
  Status Run(const EnumerationContext& ctx,
             EnumerationResult* result) const override {
    HYPRE_ASSIGN_OR_RETURN(
        core::BiasRandomResult run,
        core::BiasRandomSelection(*ctx.preferences, *ctx.enhancer,
                                  ctx.request->seed,
                                  ctx.probe_options, ctx.control));
    result->records = std::move(run.records);
    result->valid_checks = run.valid_checks;
    result->invalid_checks = run.invalid_checks;
    return Status::OK();
  }
};

class PepsEnumerator : public CombinationEnumerator {
 public:
  std::string_view name() const override { return "peps"; }
  std::string_view description() const override {
    return "pair-table-pruned expansion (Algorithm 6); k > 0 ranks tuples";
  }
  Status Run(const EnumerationContext& ctx,
             EnumerationResult* result) const override {
    core::Peps peps(ctx.preferences, ctx.enhancer,
                    ctx.probe_options);
    if (ctx.request->k > 0) {
      HYPRE_ASSIGN_OR_RETURN(
          result->top_k,
          peps.TopK(ctx.request->k, ctx.request->mode, ctx.control));
    } else {
      HYPRE_ASSIGN_OR_RETURN(
          result->records, peps.GenerateOrder(ctx.request->mode, ctx.control));
    }
    return Status::OK();
  }
};

class ThresholdAlgorithmEnumerator : public CombinationEnumerator {
 public:
  std::string_view name() const override { return "ta"; }
  std::string_view description() const override {
    return "Fagin's Threshold Algorithm over per-attribute graded lists "
           "(Top-K baseline)";
  }
  Status Run(const EnumerationContext& ctx,
             EnumerationResult* result) const override {
    // One probe per atom builds the graded lists (each atom's key bitmap is
    // materialized once); the remaining budget caps the sorted-access
    // depth, TA's unit of work.
    const auto& atoms = *ctx.preferences;
    size_t admitted = ctx.control.Admit(atoms.size());
    std::vector<core::PreferenceAtom> prefix;
    const std::vector<core::PreferenceAtom>* list_atoms = &atoms;
    if (admitted < atoms.size()) {
      prefix.assign(atoms.begin(),
                    atoms.begin() + static_cast<std::ptrdiff_t>(admitted));
      list_atoms = &prefix;
    }
    const core::ProbeEngine& engine = ctx.enhancer->probe_engine();
    HYPRE_ASSIGN_OR_RETURN(std::vector<core::GradedList> lists,
                           core::BuildGradedLists(engine, *list_atoms));
    size_t max_depth = 0;
    if (ctx.control.budget != nullptr && ctx.control.budget->limited()) {
      max_depth = ctx.control.budget->remaining();
      if (max_depth == 0) {
        if (ctx.control.truncated != nullptr) *ctx.control.truncated = true;
        return Status::OK();
      }
    }
    size_t sorted_accesses = 0;
    bool capped = false;
    HYPRE_ASSIGN_OR_RETURN(
        result->top_k,
        core::ThresholdAlgorithmTopK(engine, lists, ctx.request->k,
                                     &sorted_accesses, max_depth, &capped));
    ctx.control.Admit(sorted_accesses);  // always fits: max_depth bounded it
    if (capped && ctx.control.truncated != nullptr) {
      *ctx.control.truncated = true;
    }
    for (const core::RankedTuple& tuple : result->top_k) {
      ctx.control.Emit(tuple);
    }
    return Status::OK();
  }
};

}  // namespace

Status EnumeratorRegistry::Register(
    std::unique_ptr<CombinationEnumerator> enumerator) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& existing : enumerators_) {
    if (existing->name() == enumerator->name()) {
      return Status::AlreadyExists(StringFormat(
          "enumerator '%s' is already registered",
          std::string(enumerator->name()).c_str()));
    }
  }
  enumerators_.push_back(std::move(enumerator));
  return Status::OK();
}

Result<const CombinationEnumerator*> EnumeratorRegistry::Find(
    const std::string& name) const {
  std::string known;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& enumerator : enumerators_) {
      if (enumerator->name() == name) return enumerator.get();
    }
  }
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::InvalidArgument(StringFormat(
      "unknown algorithm '%s' (registered: %s)", name.c_str(),
      known.c_str()));
}

std::vector<std::string> EnumeratorRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(enumerators_.size());
  for (const auto& enumerator : enumerators_) {
    names.emplace_back(enumerator->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<const CombinationEnumerator*> EnumeratorRegistry::Enumerators()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const CombinationEnumerator*> out;
  out.reserve(enumerators_.size());
  for (const auto& enumerator : enumerators_) out.push_back(enumerator.get());
  std::sort(out.begin(), out.end(),
            [](const CombinationEnumerator* a,
               const CombinationEnumerator* b) { return a->name() < b->name(); });
  return out;
}

EnumeratorRegistry& EnumeratorRegistry::Global() {
  static EnumeratorRegistry* registry = [] {
    auto* r = new EnumeratorRegistry();
    (void)r->Register(std::make_unique<ExhaustiveEnumerator>());
    (void)r->Register(std::make_unique<CombineTwoEnumerator>());
    (void)r->Register(std::make_unique<PartiallyCombineAllEnumerator>());
    (void)r->Register(std::make_unique<BiasRandomEnumerator>());
    (void)r->Register(std::make_unique<PepsEnumerator>());
    (void)r->Register(std::make_unique<ThresholdAlgorithmEnumerator>());
    return r;
  }();
  return *registry;
}

}  // namespace api
}  // namespace hypre
