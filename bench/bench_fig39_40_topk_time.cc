// Figures 39-40 — Top-K retrieval time as K grows (10..800), for the
// Complete and Approximate PEPS variants, on quantitative-only and full
// hybrid profiles.
//
// Paper: retrieval time grows mildly with K; the Complete variant is only
// slightly slower than the Approximate one (uid=2: ~2.2 s vs ~2.0 s at
// K=800; uid=38437 under a second throughout). Absolute numbers here are
// smaller (in-memory store, smaller profiles); the shapes to check are the
// mild growth in K and the small Complete-vs-Approximate gap.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hypre/algorithms/peps.h"

using namespace hypre;
using namespace hypre::bench;

namespace {

struct Setup {
  std::unique_ptr<Workload> w;
  std::unique_ptr<core::ProbeEngine> engine;
  std::vector<core::PreferenceAtom> quant_atoms_a;
  std::vector<core::PreferenceAtom> full_atoms_a;
  std::vector<core::PreferenceAtom> full_atoms_b;
};

Setup* GetSetup() {
  static Setup* setup = [] {
    auto* s = new Setup();
    s->w = Workload::Create();
    s->engine = std::make_unique<core::ProbeEngine>(
        &s->w->db, s->w->BaseQuery(), "dblp.pid");
    core::HypreGraph quant_a = s->w->BuildGraph(s->w->user_a, false);
    core::HypreGraph full_a = s->w->BuildGraph(s->w->user_a, true);
    core::HypreGraph full_b = s->w->BuildGraph(s->w->user_b, true);
    s->quant_atoms_a = s->w->Atoms(quant_a, s->w->user_a, 80);
    s->full_atoms_a = s->w->Atoms(full_a, s->w->user_a, 80);
    s->full_atoms_b = s->w->Atoms(full_b, s->w->user_b, 80);
    return s;
  }();
  return setup;
}

void RunTopK(benchmark::State& state,
             const std::vector<core::PreferenceAtom>* atoms,
             core::PepsMode mode) {
  Setup* s = GetSetup();
  size_t k = static_cast<size_t>(state.range(0));
  // The pair table is a profile-maintenance artifact (recomputed on graph
  // updates, §5.5), so it is excluded from the per-query timing.
  core::Peps warm(atoms, s->engine.get());
  if (!warm.PrecomputePairs().ok()) state.SkipWithError("precompute failed");
  for (auto _ : state) {
    auto top = warm.TopK(k, mode);
    if (!top.ok()) state.SkipWithError("TopK failed");
    benchmark::DoNotOptimize(top->size());
  }
}

void BM_UserA_Complete_All(benchmark::State& state) {
  RunTopK(state, &GetSetup()->full_atoms_a, core::PepsMode::kComplete);
}
void BM_UserA_Approx_All(benchmark::State& state) {
  RunTopK(state, &GetSetup()->full_atoms_a, core::PepsMode::kApproximate);
}
void BM_UserA_Approx_QuantOnly(benchmark::State& state) {
  RunTopK(state, &GetSetup()->quant_atoms_a, core::PepsMode::kApproximate);
}
void BM_UserB_Complete_All(benchmark::State& state) {
  RunTopK(state, &GetSetup()->full_atoms_b, core::PepsMode::kComplete);
}
void BM_UserB_Approx_All(benchmark::State& state) {
  RunTopK(state, &GetSetup()->full_atoms_b, core::PepsMode::kApproximate);
}

void KRange(benchmark::internal::Benchmark* b) {
  for (int k : {10, 100, 200, 400, 800}) b->Arg(k);
}

BENCHMARK(BM_UserA_Complete_All)->Apply(KRange)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UserA_Approx_All)->Apply(KRange)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UserA_Approx_QuantOnly)
    ->Apply(KRange)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UserB_Complete_All)->Apply(KRange)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UserB_Approx_All)->Apply(KRange)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
