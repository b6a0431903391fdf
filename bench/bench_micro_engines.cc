// Micro-benchmarks for the embedded substrates (not a paper experiment):
// index lookups, scans, hash joins, predicate parsing/evaluation, graph
// CRUD and traversal, cypher_lite queries, and the group-level enhancement
// probe. These put numbers on the building blocks the paper-level benches
// compose, so regressions are attributable.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bench_util.h"
#include "common/random.h"
#include "graphdb/cypher_lite.h"
#include "graphdb/traversal.h"
#include "hypre/algorithms/peps.h"
#include "hypre/api/session.h"
#include "hypre/batch_prober.h"
#include "hypre/parallel/word_kernels.h"
#include "hypre/probe_engine.h"
#include "hypre/telemetry/registry.h"
#include "reldb/csv.h"
#include "sqlparse/parser.h"
#include "sqlparse/select_parser.h"

using namespace hypre;
using namespace hypre::bench;

namespace {

struct Micro {
  std::unique_ptr<Workload> w;
  std::unique_ptr<core::ProbeEngine> engine;
  reldb::ExprPtr venue_pred;
  reldb::ExprPtr mixed_pred;
  graphdb::GraphStore graph;
  std::vector<graphdb::NodeId> chain;
};

Micro* GetMicro() {
  static Micro* micro = [] {
    auto* m = new Micro();
    workload::DblpConfig config;
    config.num_papers = 10000;
    config.num_authors = 4000;
    m->w = std::make_unique<Workload>();
    m->w->stats = Unwrap(workload::GenerateDblp(config, &m->w->db));
    reldb::Query base;
    base.from = "dblp";
    base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    m->engine = std::make_unique<core::ProbeEngine>(&m->w->db, base,
                                                    "dblp.pid");
    m->venue_pred =
        Unwrap(sqlparse::ParsePredicate("dblp.venue='SIGMOD'"));
    m->mixed_pred = Unwrap(sqlparse::ParsePredicate(
        "(dblp.venue='SIGMOD' OR dblp.venue='VLDB') AND "
        "(dblp_author.aid=1 OR dblp_author.aid=2 OR dblp_author.aid=3)"));
    // A 64-node PREFERS chain for traversal benchmarks.
    Status st = m->graph.CreateIndex("uidIndex", "uid");
    if (!st.ok()) Die(st);
    for (int i = 0; i < 64; ++i) {
      graphdb::PropertyMap props;
      props["uid"] = graphdb::PropertyValue(int64_t{1});
      props["intensity"] = graphdb::PropertyValue(1.0 - i * 0.01);
      m->chain.push_back(m->graph.AddNode({"uidIndex"}, std::move(props)));
      if (i > 0) {
        (void)m->graph.AddEdge(m->chain[i - 1], m->chain[i], "PREFERS");
      }
    }
    return m;
  }();
  return micro;
}

void BM_HashIndexLookup(benchmark::State& state) {
  Micro* m = GetMicro();
  const reldb::HashIndex* idx =
      m->w->db.GetTable("dblp")->GetHashIndex("venue");
  reldb::Value key = reldb::Value::Str("SIGMOD");
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Lookup(key).size());
  }
}
BENCHMARK(BM_HashIndexLookup);

void BM_FullScanFilter(benchmark::State& state) {
  Micro* m = GetMicro();
  reldb::Executor exec(&m->w->db);
  reldb::Query q;
  q.from = "dblp";
  q.where = Unwrap(sqlparse::ParsePredicate("year>=2005 AND year<=2007"));
  q.select = {"dblp.pid"};
  for (auto _ : state) {
    auto r = exec.Execute(q);
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_FullScanFilter)->Unit(benchmark::kMicrosecond);

void BM_HashJoinCountDistinct(benchmark::State& state) {
  Micro* m = GetMicro();
  reldb::Executor exec(&m->w->db);
  reldb::Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  q.where = m->venue_pred;
  for (auto _ : state) {
    auto r = exec.CountDistinct(q, "dblp.pid");
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_HashJoinCountDistinct)->Unit(benchmark::kMicrosecond);

void BM_PredicateParse(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sqlparse::ParsePredicate(
        "(dblp.venue='SIGMOD' OR dblp.venue='VLDB') AND year>=2005 AND "
        "dblp_author.aid IN (1, 2, 3)");
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_PredicateParse);

void BM_SelectParse(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sqlparse::ParseSelect(
        "SELECT count(distinct dblp.pid) FROM dblp JOIN dblp_author ON "
        "dblp.pid = dblp_author.pid WHERE dblp.venue='SIGMOD' LIMIT 10");
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SelectParse);

void BM_EngineProbeCold(benchmark::State& state) {
  // Fresh engine each round: measures the real leaf probes.
  Micro* m = GetMicro();
  reldb::Query base;
  base.from = "dblp";
  base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  for (auto _ : state) {
    core::ProbeEngine engine(&m->w->db, base, "dblp.pid");
    auto r = engine.CountMatching(m->mixed_pred);
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_EngineProbeCold)->Unit(benchmark::kMicrosecond);

void BM_EngineProbeWarm(benchmark::State& state) {
  // Shared engine: leaf sets cached, probe reduces to set algebra.
  Micro* m = GetMicro();
  (void)m->engine->CountMatching(m->mixed_pred);
  for (auto _ : state) {
    auto r = m->engine->CountMatching(m->mixed_pred);
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_EngineProbeWarm);

// --- Bitmap vs hash-set probe ----------------------------------------------
//
// Both benchmarks evaluate the same warm probe (leaf sets already cached) so
// the measured cost is pure set algebra: the hash-set reference replays the
// intersection/union loops the probe layer ran before the bitmap engine; the
// bitmap path is the engine's word-wise ops + popcount. The count cache is
// bypassed in both so each iteration really re-runs the algebra.

/// The legacy evaluation: leaf key sets as unordered_sets, boolean
/// combination by hash-set intersection/union/complement.
class HashSetAlgebra {
 public:
  using KeySet = std::unordered_set<reldb::Value, reldb::ValueHash>;

  HashSetAlgebra(const reldb::Database* db, reldb::Query base_query,
                 std::string key_column)
      : executor_(db),
        base_query_(std::move(base_query)),
        key_column_(std::move(key_column)) {}

  KeySet Eval(const reldb::ExprPtr& expr) {
    switch (expr->kind()) {
      case reldb::ExprKind::kAnd: {
        const auto& nary = static_cast<const reldb::NaryExpr&>(*expr);
        bool first = true;
        KeySet acc;
        for (const auto& child : nary.children()) {
          KeySet child_set = Eval(child);
          if (first) {
            acc = std::move(child_set);
            first = false;
            continue;
          }
          KeySet next;
          for (const auto& v : acc) {
            if (child_set.count(v) > 0) next.insert(v);
          }
          acc = std::move(next);
        }
        return acc;
      }
      case reldb::ExprKind::kOr: {
        const auto& nary = static_cast<const reldb::NaryExpr&>(*expr);
        KeySet acc;
        for (const auto& child : nary.children()) {
          KeySet child_set = Eval(child);
          acc.insert(child_set.begin(), child_set.end());
        }
        return acc;
      }
      default: {
        // Leaf: cached probe, as the pre-bitmap probe layer did.
        std::string key = expr->ToString();
        auto it = leaf_cache_.find(key);
        if (it == leaf_cache_.end()) {
          reldb::Query query = base_query_;
          query.where =
              query.where ? reldb::MakeAnd(query.where, expr) : expr;
          auto keys = Unwrap(executor_.DistinctValues(query, key_column_));
          it = leaf_cache_
                   .emplace(std::move(key), KeySet(keys.begin(), keys.end()))
                   .first;
        }
        return it->second;
      }
    }
  }

 private:
  reldb::Executor executor_;
  reldb::Query base_query_;
  std::string key_column_;
  std::unordered_map<std::string, KeySet> leaf_cache_;
};

void BM_ProbeAlgebraHashSet(benchmark::State& state) {
  Micro* m = GetMicro();
  reldb::Query base;
  base.from = "dblp";
  base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  HashSetAlgebra reference(&m->w->db, base, "dblp.pid");
  (void)reference.Eval(m->mixed_pred);  // warm the leaf cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference.Eval(m->mixed_pred).size());
  }
}
BENCHMARK(BM_ProbeAlgebraHashSet)->Unit(benchmark::kMicrosecond);

void BM_ProbeAlgebraBitmap(benchmark::State& state) {
  Micro* m = GetMicro();
  reldb::Query base;
  base.from = "dblp";
  base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  core::ProbeEngine engine(&m->w->db, base, "dblp.pid");
  (void)engine.EvalBitmap(m->mixed_pred);  // warm the leaf bitmaps
  for (auto _ : state) {
    auto bits = engine.EvalBitmap(m->mixed_pred);
    benchmark::DoNotOptimize(bits->Count());
  }
}
BENCHMARK(BM_ProbeAlgebraBitmap)->Unit(benchmark::kMicrosecond);

// --- Batched combination probing ---------------------------------------------
//
// The batch layer pays off when the frontier's leaf bitmaps exceed cache:
// it keeps one shard of every leaf cache-resident while all pending
// combinations consume it. So these benches run on their own larger
// workload — a 400k-paper universe (~6250 words, ~50 KB per leaf bitmap,
// ~2.4 MB for the 48 preference leaves: past a typical L2). The frontier
// benchmarks probe 512 mixed combinations in one CountBatch; the pair-table
// benchmarks rebuild the PEPS pair table (the C(48,2) upper triangle); the
// Cold variants use a fresh engine per iteration, so they include the bulk
// leaf prefetch pass.

struct BatchBench {
  std::unique_ptr<Workload> w;
  std::unique_ptr<core::ProbeEngine> engine;
  reldb::Query base;
  std::vector<core::PreferenceAtom> atoms;
  std::unique_ptr<core::Combiner> combiner;
  std::unique_ptr<core::CombinationProber> prober;
  std::vector<core::Combination> frontier;
};

BatchBench* GetBatchBench() {
  static BatchBench* bench = [] {
    auto* b = new BatchBench();
    workload::DblpConfig config;
    config.num_papers = 400000;
    config.num_authors = 40000;
    config.max_authors_per_paper = 2;
    config.avg_citations_per_paper = 0.0;  // citations are not probed here
    b->w = std::make_unique<Workload>();
    b->w->stats = Unwrap(workload::GenerateDblp(config, &b->w->db));
    b->base.from = "dblp";
    b->base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    b->engine = std::make_unique<core::ProbeEngine>(&b->w->db, b->base,
                                                    "dblp.pid");
    auto add = [&](const std::string& pred, double intensity) {
      b->atoms.push_back(Unwrap(core::MakeAtom(pred, intensity)));
    };
    for (int aid = 1; aid <= 40; ++aid) {
      add("dblp_author.aid=" + std::to_string(aid), 0.9 - aid * 0.01);
    }
    const char* venues[] = {"SIGMOD", "VLDB",     "PVLDB", "PODS",
                            "ICDE",   "CIKM",     "KDD",   "INFOCOM"};
    for (int v = 0; v < 8; ++v) {
      add(std::string("dblp.venue='") + venues[v] + "'", 0.85 - v * 0.01);
    }
    core::SortByIntensityDesc(&b->atoms);
    b->combiner = std::make_unique<core::Combiner>(&b->atoms);
    b->prober = std::make_unique<core::CombinationProber>(b->combiner.get(),
                                                          b->engine.get());
    Status st = b->prober->PrefetchAll();
    if (!st.ok()) Die(st);
    Rng rng(7);
    for (int i = 0; i < 512; ++i) {
      size_t size = 2 + rng.NextBounded(3);
      std::set<size_t> members;
      while (members.size() < size) members.insert(rng.NextBounded(48));
      b->frontier.push_back(b->combiner->MixedClause(
          std::vector<size_t>(members.begin(), members.end())));
    }
    return b;
  }();
  return bench;
}

void BM_FrontierProbeBatch(benchmark::State& state) {
  BatchBench* b = GetBatchBench();
  for (auto _ : state) {
    auto counts = b->prober->CountBatch(b->frontier);
    benchmark::DoNotOptimize(counts->size());
  }
}
BENCHMARK(BM_FrontierProbeBatch)->Unit(benchmark::kMicrosecond);

// --- SIMD word kernels --------------------------------------------------------

// Kernel-level: one probe-shaped pass (AND two leaf bitmaps, count bits)
// over a buffer the size of the 400k-key universe bitmap, scalar vs the
// build's best compiled kernels. Bytes/sec makes the memory-bound ceiling
// visible.
void RunAndCountKernel(benchmark::State& state,
                       const parallel::WordKernels& kn) {
  constexpr size_t kWords = 400000 / 64 + 1;
  std::vector<uint64_t> a(kWords), b(kWords);
  Rng rng(11);
  for (size_t i = 0; i < kWords; ++i) {
    a[i] = rng.Next();
    b[i] = rng.Next();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kn.and_count(a.data(), b.data(), kWords));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * kWords * 2 * sizeof(uint64_t)));
  state.SetLabel(kn.name);
}

void BM_AndCountKernelScalar(benchmark::State& state) {
  RunAndCountKernel(state, parallel::ScalarWordKernels());
}
void BM_AndCountKernelActive(benchmark::State& state) {
  RunAndCountKernel(state, parallel::ActiveWordKernels());
}
BENCHMARK(BM_AndCountKernelScalar);
BENCHMARK(BM_AndCountKernelActive);

void RunPopcountKernel(benchmark::State& state,
                       const parallel::WordKernels& kn) {
  constexpr size_t kWords = 400000 / 64 + 1;
  std::vector<uint64_t> a(kWords);
  Rng rng(13);
  for (size_t i = 0; i < kWords; ++i) a[i] = rng.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kn.popcount(a.data(), kWords));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * kWords * sizeof(uint64_t)));
  state.SetLabel(kn.name);
}

void BM_PopcountKernelScalar(benchmark::State& state) {
  RunPopcountKernel(state, parallel::ScalarWordKernels());
}
void BM_PopcountKernelActive(benchmark::State& state) {
  RunPopcountKernel(state, parallel::ActiveWordKernels());
}
BENCHMARK(BM_PopcountKernelScalar);
BENCHMARK(BM_PopcountKernelActive);

void RunPairTable(benchmark::State& state, bool cold) {
  BatchBench* b = GetBatchBench();
  for (auto _ : state) {
    std::unique_ptr<core::ProbeEngine> fresh;
    const core::ProbeEngine* engine = b->engine.get();
    if (cold) {
      fresh = std::make_unique<core::ProbeEngine>(&b->w->db, b->base,
                                                  "dblp.pid");
      engine = fresh.get();
    }
    core::Peps peps(&b->atoms, engine);
    Status st = peps.PrecomputePairs();
    if (!st.ok()) {
      state.SkipWithError("precompute failed");
      return;
    }
    benchmark::DoNotOptimize(peps.pairs().size());
  }
}

void BM_PepsPairTableBatch(benchmark::State& state) {
  RunPairTable(state, /*cold=*/false);
}
void BM_PepsPairTableColdBatch(benchmark::State& state) {
  RunPairTable(state, /*cold=*/true);
}
BENCHMARK(BM_PepsPairTableBatch)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PepsPairTableColdBatch)->Unit(benchmark::kMillisecond);

// --- Update throughput: incremental Refresh vs full rebuild -----------------
//
// The delta subsystem's contract: after base-table mutations, an
// incremental ProbeEngine::Refresh() must beat tearing the engine down and
// rebuilding it (full universe scan + bulk leaf prefetch) on small deltas.
// Each iteration applies a churn batch — Arg(0)/2 appended papers (with one
// author link each) and the same number of deleted papers — then brings a
// warm engine back to a probe-ready state either incrementally (Refresh;
// the shared prober re-derives its bitmaps from the patched caches) or from
// scratch (fresh ProbeEngine + PrefetchAll). One representative
// combination probe closes each iteration so both variants end probe-ready.
// items_per_second == mutations absorbed per second.

struct DeltaBench {
  std::unique_ptr<Workload> w;
  reldb::Query base;
  std::unique_ptr<core::ProbeEngine> engine;
  std::unique_ptr<api::Session> session;
  std::vector<core::PreferenceAtom> atoms;
  std::unique_ptr<core::Combiner> combiner;
  std::unique_ptr<core::CombinationProber> prober;
  core::Combination probe_combo;
  int64_t next_pid = 0;
  Rng rng{17};
};

DeltaBench* GetDeltaBench() {
  static DeltaBench* bench = [] {
    auto* b = new DeltaBench();
    workload::DblpConfig config;
    config.num_papers = 100000;
    config.num_authors = 10000;
    config.max_authors_per_paper = 2;
    config.avg_citations_per_paper = 0.0;
    b->w = std::make_unique<Workload>();
    b->w->stats = Unwrap(workload::GenerateDblp(config, &b->w->db));
    b->next_pid = static_cast<int64_t>(config.num_papers);
    b->base.from = "dblp";
    b->base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    b->engine = std::make_unique<core::ProbeEngine>(&b->w->db, b->base,
                                                    "dblp.pid");
    auto add = [&](const std::string& pred, double intensity) {
      b->atoms.push_back(Unwrap(core::MakeAtom(pred, intensity)));
    };
    for (int aid = 1; aid <= 16; ++aid) {
      add("dblp_author.aid=" + std::to_string(aid), 0.9 - aid * 0.01);
    }
    const char* venues[] = {"SIGMOD", "VLDB", "PVLDB", "PODS",
                            "ICDE",   "CIKM", "KDD",   "INFOCOM"};
    for (int v = 0; v < 8; ++v) {
      add(std::string("dblp.venue='") + venues[v] + "'", 0.85 - v * 0.01);
    }
    core::SortByIntensityDesc(&b->atoms);
    b->combiner = std::make_unique<core::Combiner>(&b->atoms);
    b->prober = std::make_unique<core::CombinationProber>(b->combiner.get(),
                                                          b->engine.get());
    Status st = b->prober->PrefetchAll();
    if (!st.ok()) Die(st);
    b->probe_combo = b->combiner->MixedClause({0, 5, 20});
    b->session = std::make_unique<api::Session>(&b->w->db);
    return b;
  }();
  return bench;
}

// --- Facade overhead: Session::Enumerate vs direct algorithm call -----------
//
// Both benchmarks run the identical PEPS workload — construct a Peps over
// the 24 warm, prefetched preference leaves and GenerateOrder (dominated by
// the C(24,2) batched pair table) — against the 100k-paper database. The
// Direct variant calls the algorithm on a long-lived ProbeEngine the way
// pre-API call sites did; the Session variant goes through the full unified
// API path: registry lookup by name, engine-cache hit, no-op Refresh
// (epoch pin), preference copy + sort, leaf-prefetch dedup, and the
// per-request ProbeStats delta. The difference is the facade tax on a warm
// request (acceptance: <= 5%). Registered BEFORE the churn benches so both
// variants see the same un-mutated tables.

void BM_PepsOrderWarmDirect(benchmark::State& state) {
  DeltaBench* b = GetDeltaBench();
  for (auto _ : state) {
    core::Peps peps(&b->atoms, b->engine.get());
    auto order = peps.GenerateOrder(core::PepsMode::kComplete);
    if (!order.ok()) {
      state.SkipWithError("direct GenerateOrder failed");
      return;
    }
    benchmark::DoNotOptimize(order->size());
  }
}
BENCHMARK(BM_PepsOrderWarmDirect)->Unit(benchmark::kMicrosecond);

void BM_PepsOrderWarmSession(benchmark::State& state) {
  DeltaBench* b = GetDeltaBench();
  api::EnumerationRequest request;
  request.algorithm = "peps";
  request.base_query = b->base;
  request.key_column = "dblp.pid";
  request.preferences = b->atoms;
  // Warm the session's cached engine (universe + leaves) untimed.
  if (!b->session->Enumerate(request).ok()) {
    state.SkipWithError("session warmup failed");
    return;
  }
  for (auto _ : state) {
    auto result = b->session->Enumerate(request);
    if (!result.ok()) {
      state.SkipWithError("session Enumerate failed");
      return;
    }
    benchmark::DoNotOptimize(result->records.size());
  }
}
BENCHMARK(BM_PepsOrderWarmSession)->Unit(benchmark::kMicrosecond);

void BM_PepsTopKWarmSession(benchmark::State& state) {
  // Warm PEPS top-10 through Session with a serving-shaped profile: 20
  // atoms drawn (fixed seed) from a 64-leaf pool of the 24 most popular
  // venues and the most productive author of each of the 40 communities,
  // at distinct intensities. The pair table, the DFS and the Top-K record
  // walk all run; no record is returned, so none is built.
  DeltaBench* b = GetDeltaBench();
  std::vector<std::string> pool;
  for (size_t v = 0; v < 24; ++v) {
    pool.push_back("dblp.venue='" + workload::VenueName(v) + "'");
  }
  for (int aid = 0; aid < 40; ++aid) {
    pool.push_back("dblp_author.aid=" + std::to_string(aid));
  }
  Rng rng(20);
  api::EnumerationRequest request;
  request.algorithm = "peps";
  request.base_query = b->base;
  request.key_column = "dblp.pid";
  request.k = 10;
  for (size_t i = 0; i < 20; ++i) {
    size_t pick = i + rng.NextBounded(pool.size() - i);
    std::swap(pool[i], pool[pick]);
    request.preferences.push_back(Unwrap(
        core::MakeAtom(pool[i], 0.95 - 0.04 * static_cast<double>(i))));
  }
  if (!b->session->Enumerate(request).ok()) {
    state.SkipWithError("session warmup failed");
    return;
  }
  for (auto _ : state) {
    auto result = b->session->Enumerate(request);
    if (!result.ok()) {
      state.SkipWithError("session Enumerate failed");
      return;
    }
    benchmark::DoNotOptimize(result->top_k.size());
  }
}
BENCHMARK(BM_PepsTopKWarmSession)->Unit(benchmark::kMicrosecond);

void BM_TaTopKWarmSession(benchmark::State& state) {
  // Warm TA top-10 over the same 24 atoms: the venue and author graded
  // lists are rebuilt from the cached leaf bitmaps on every request.
  DeltaBench* b = GetDeltaBench();
  api::EnumerationRequest request;
  request.algorithm = "ta";
  request.base_query = b->base;
  request.key_column = "dblp.pid";
  request.preferences = b->atoms;
  request.k = 10;
  if (!b->session->Enumerate(request).ok()) {
    state.SkipWithError("session warmup failed");
    return;
  }
  for (auto _ : state) {
    auto result = b->session->Enumerate(request);
    if (!result.ok()) {
      state.SkipWithError("session Enumerate failed");
      return;
    }
    benchmark::DoNotOptimize(result->top_k.size());
  }
}
BENCHMARK(BM_TaTopKWarmSession)->Unit(benchmark::kMicrosecond);

void BM_PepsOrderWarmSessionTraced(benchmark::State& state) {
  // The same warm request with a per-request span trace attached — the
  // telemetry overhead acceptance pits this (and the untraced Session
  // variant under -DHYPRE_TELEMETRY=ON) against an OFF build.
  DeltaBench* b = GetDeltaBench();
  api::EnumerationRequest request;
  request.algorithm = "peps";
  request.base_query = b->base;
  request.key_column = "dblp.pid";
  request.preferences = b->atoms;
  request.trace = true;
  if (!b->session->Enumerate(request).ok()) {
    state.SkipWithError("session warmup failed");
    return;
  }
  for (auto _ : state) {
    auto result = b->session->Enumerate(request);
    if (!result.ok()) {
      state.SkipWithError("session Enumerate failed");
      return;
    }
    benchmark::DoNotOptimize(result->records.size());
    benchmark::DoNotOptimize(result->trace.spans().size());
  }
}
BENCHMARK(BM_PepsOrderWarmSessionTraced)->Unit(benchmark::kMicrosecond);

// --- Concurrent serving: many clients, one session, one engine --------------
//
// The multi-tenant stress bench: N client threads each answering the warm
// 24-preference PEPS request against the SAME session and cached engine,
// every result checked byte-for-byte against a serial baseline computed
// before the threads start. Each client probes single-threaded (the
// many-client serving model: parallelism comes from requests, not from
// splitting one request), so read throughput should scale near-linearly
// with clients until the cores run out — the engine's shared state is
// reader-reader only (shared_mutex cache reads, atomic counters, epoch
// pins). items_per_second == requests/s across all client threads. Any
// divergence from the serial digest flips a global flag that turns the
// whole bench run's exit code nonzero, so CI fails loudly rather than
// shipping a wrong-results regression as a timing artifact. Registered
// BEFORE the churn benches: these clients must see un-mutated tables.

std::atomic<bool> g_serving_divergence{false};

api::EnumerationRequest ServingRequest() {
  DeltaBench* b = GetDeltaBench();
  api::EnumerationRequest request;
  request.algorithm = "peps";
  request.base_query = b->base;
  request.key_column = "dblp.pid";
  request.preferences = b->atoms;
  return request;
}

std::string ServingDigest(const api::EnumerationResult& result) {
  std::string out;
  out.reserve(result.records.size() * 48);
  for (const auto& rec : result.records) {
    out += rec.predicate_sql;
    out += '|';
    out += std::to_string(rec.num_tuples);
    out += '|';
    out += std::to_string(rec.intensity);
    out += '\n';
  }
  return out;
}

const std::string& ServingSerialBaseline() {
  // Magic static: the first bench thread computes the serial baseline while
  // every other thread blocks on the initializer, so the reference request
  // runs with no concurrency and warms the session's engine untimed.
  static const std::string* digest = [] {
    DeltaBench* b = GetDeltaBench();
    auto result = b->session->Enumerate(ServingRequest());
    if (!result.ok()) Die(result.status());
    return new std::string(ServingDigest(*result));
  }();
  return *digest;
}

void BM_ConcurrentServing(benchmark::State& state) {
  const std::string& baseline = ServingSerialBaseline();
  DeltaBench* b = GetDeltaBench();
  api::EnumerationRequest request = ServingRequest();
  for (auto _ : state) {
    auto result = b->session->Enumerate(request);
    if (!result.ok()) {
      g_serving_divergence.store(true);
      state.SkipWithError("concurrent Enumerate failed");
      return;
    }
    if (ServingDigest(*result) != baseline) {
      g_serving_divergence.store(true);
      state.SkipWithError("concurrent result diverged from serial baseline");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentServing)
    ->Threads(1)
    ->Threads(2)
    ->Threads(8)
    ->Threads(64)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Appends `n/2` papers (+1 author link each) and deletes `n/2` random live
/// papers from the bench tables.
void ApplyChurn(DeltaBench* b, size_t n) {
  static const char* venues[] = {"SIGMOD", "VLDB", "PVLDB", "PODS"};
  reldb::Table* dblp = b->w->db.GetTable("dblp");
  reldb::Table* da = b->w->db.GetTable("dblp_author");
  for (size_t i = 0; i < n / 2; ++i) {
    int64_t pid = b->next_pid++;
    dblp->AppendUnchecked(reldb::Row{
        reldb::Value::Int(pid), reldb::Value::Str("Paper"),
        reldb::Value::Int(2026), reldb::Value::Str(venues[b->rng.NextBounded(4)])});
    da->AppendUnchecked(reldb::Row{
        reldb::Value::Int(pid),
        reldb::Value::Int(1 + static_cast<int64_t>(b->rng.NextBounded(32)))});
  }
  for (size_t i = 0; i < n / 2; ++i) {
    for (int attempts = 0; attempts < 64; ++attempts) {
      reldb::RowId id = b->rng.NextBounded(dblp->num_rows());
      if (!dblp->is_deleted(id)) {
        Status st = dblp->Delete(id);
        if (!st.ok()) Die(st);
        break;
      }
    }
  }
}

void BM_UpdateChurnIncrementalRefresh(benchmark::State& state) {
  DeltaBench* b = GetDeltaBench();
  size_t churn = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ApplyChurn(b, churn);
    state.ResumeTiming();
    auto epoch = b->engine->Refresh();
    if (!epoch.ok()) Die(epoch.status());
    benchmark::DoNotOptimize(b->prober->CountBatch({b->probe_combo}).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * churn));
}
BENCHMARK(BM_UpdateChurnIncrementalRefresh)
    ->Arg(16)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// Applies `n/4` mutates shaped like servebench's write_mix ones: append a
/// paper plus two author links, then delete one random live author link.
/// Link rows are not key-table rows, so every delete re-joins the deleted
/// row to find the keys it supported.
void ApplyLinkChurn(DeltaBench* b, size_t n) {
  static const char* venues[] = {"SIGMOD", "VLDB", "PVLDB", "PODS"};
  reldb::Table* dblp = b->w->db.GetTable("dblp");
  reldb::Table* da = b->w->db.GetTable("dblp_author");
  for (size_t i = 0; i < n / 4; ++i) {
    int64_t pid = b->next_pid++;
    dblp->AppendUnchecked(
        reldb::Row{reldb::Value::Int(pid), reldb::Value::Str("Paper"),
                   reldb::Value::Int(2026),
                   reldb::Value::Str(venues[b->rng.NextBounded(4)])});
    for (int link = 0; link < 2; ++link) {
      da->AppendUnchecked(reldb::Row{
          reldb::Value::Int(pid),
          reldb::Value::Int(1 + static_cast<int64_t>(b->rng.NextBounded(32)))});
    }
    for (int attempts = 0; attempts < 64; ++attempts) {
      reldb::RowId id = b->rng.NextBounded(da->num_rows());
      if (!da->is_deleted(id)) {
        Status st = da->Delete(id);
        if (!st.ok()) Die(st);
        break;
      }
    }
  }
}

void BM_UpdateChurnLinkDeletes(benchmark::State& state) {
  DeltaBench* b = GetDeltaBench();
  size_t churn = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ApplyLinkChurn(b, churn);
    state.ResumeTiming();
    auto epoch = b->engine->Refresh();
    if (!epoch.ok()) Die(epoch.status());
    benchmark::DoNotOptimize(b->prober->CountBatch({b->probe_combo}).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * churn));
}
BENCHMARK(BM_UpdateChurnLinkDeletes)
    ->Arg(16)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_UpdateChurnFullRebuild(benchmark::State& state) {
  DeltaBench* b = GetDeltaBench();
  size_t churn = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ApplyChurn(b, churn);
    state.ResumeTiming();
    core::ProbeEngine fresh(&b->w->db, b->base, "dblp.pid");
    core::CombinationProber prober(b->combiner.get(), &fresh);
    Status st = prober.PrefetchAll();
    if (!st.ok()) Die(st);
    benchmark::DoNotOptimize(prober.CountBatch({b->probe_combo}).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * churn));
}
BENCHMARK(BM_UpdateChurnFullRebuild)
    ->Arg(16)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// --- Durable storage: cold CSV start vs warm snapshot start -----------------
//
// The restart story the storage subsystem exists for. Both benchmarks end in
// the same place — an api::Session over the 100k-paper universe that has
// answered one PEPS request — starting from nothing but bytes on disk. The
// cold variant re-derives everything a pre-storage restart had to: CSV parse
// and journaled appends for all four tables, index builds, universe
// interning, and the 24 leaf queries. The warm variant reopens the
// checkpoint the fixture wrote once: dictionary, leaf bitmaps, and catalog
// come back from checksummed binary sections with no base-table scans.
// Acceptance (ISSUE 7): warm >= 5x faster than cold (BENCH_storage.json).

struct StorageBench {
  std::string store_dir;
  std::vector<std::pair<std::string, std::string>> csv_files;  // table, path
  std::vector<core::PreferenceAtom> atoms;
  api::EnumerationRequest request;
};

StorageBench* GetStorageBench() {
  static StorageBench* bench = [] {
    auto* b = new StorageBench();
    char tmpl[] = "/tmp/hypre_bench_storage_XXXXXX";
    char* root_raw = ::mkdtemp(tmpl);
    if (root_raw == nullptr) Die(Status::Internal("mkdtemp failed"));
    std::string root = root_raw;
    b->store_dir = root + "/store";

    auto db = std::make_unique<reldb::Database>();
    workload::DblpConfig config;
    config.num_papers = 100000;
    config.num_authors = 10000;
    config.max_authors_per_paper = 2;
    config.avg_citations_per_paper = 0.0;
    config.seed = 42;
    (void)Unwrap(workload::GenerateDblp(config, db.get()));

    // The cold path's input: one CSV dump per table.
    for (const std::string& name : db->TableNames()) {
      std::string path = root + "/" + name + ".csv";
      std::ofstream out(path);
      Status st = reldb::WriteCsv(*db->GetTable(name), &out);
      if (!st.ok()) Die(st);
      out.close();
      if (!out.good()) Die(Status::Internal("CSV dump failed: " + path));
      b->csv_files.emplace_back(name, path);
    }

    // The request both variants answer — same shape as DeltaBench's.
    auto add = [&](const std::string& pred, double intensity) {
      b->atoms.push_back(Unwrap(core::MakeAtom(pred, intensity)));
    };
    for (int aid = 1; aid <= 16; ++aid) {
      add("dblp_author.aid=" + std::to_string(aid), 0.9 - aid * 0.01);
    }
    const char* venues[] = {"SIGMOD", "VLDB", "PVLDB", "PODS",
                            "ICDE",   "CIKM", "KDD",   "INFOCOM"};
    for (int v = 0; v < 8; ++v) {
      add(std::string("dblp.venue='") + venues[v] + "'", 0.85 - v * 0.01);
    }
    core::SortByIntensityDesc(&b->atoms);
    b->request.algorithm = "peps";
    b->request.base_query.from = "dblp";
    b->request.base_query.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    b->request.key_column = "dblp.pid";
    b->request.preferences = b->atoms;

    // The warm path's input: one checkpoint. The untimed Enumerate warms
    // the engine (universe + the 24 leaves) so the snapshot captures it.
    api::Session session(std::move(db));
    auto warmup = session.Enumerate(b->request);
    if (!warmup.ok()) Die(warmup.status());
    Status st = session.AttachStorage(b->store_dir);
    if (!st.ok()) Die(st);
    return b;
  }();
  return bench;
}

void BM_ColdStartFromCsv(benchmark::State& state) {
  StorageBench* b = GetStorageBench();
  using reldb::ValueType;
  for (auto _ : state) {
    // Recreate the schemas the synthetic generator uses, reload every table
    // from its CSV dump (journaled appends), rebuild the indexes, then
    // answer the request — universe interning and leaf prefetch included.
    auto db = std::make_unique<reldb::Database>();
    reldb::Table* dblp = Unwrap(db->CreateTable(
        "dblp", reldb::Schema({{"pid", ValueType::kInt64},
                               {"title", ValueType::kString},
                               {"year", ValueType::kInt64},
                               {"venue", ValueType::kString}})));
    reldb::Table* author = Unwrap(db->CreateTable(
        "author", reldb::Schema({{"aid", ValueType::kInt64},
                                 {"name", ValueType::kString}})));
    reldb::Table* dblp_author = Unwrap(db->CreateTable(
        "dblp_author", reldb::Schema({{"pid", ValueType::kInt64},
                                      {"aid", ValueType::kInt64}})));
    reldb::Table* citation = Unwrap(db->CreateTable(
        "citation", reldb::Schema({{"pid", ValueType::kInt64},
                                   {"cid", ValueType::kInt64}})));
    for (const auto& entry : b->csv_files) {
      (void)Unwrap(
          reldb::AppendCsvFile(entry.second, db->GetTable(entry.first)));
    }
    auto index = [&](Status st) {
      if (!st.ok()) Die(st);
    };
    index(dblp->CreateHashIndex("pid"));
    index(dblp->CreateHashIndex("venue"));
    index(dblp->CreateOrderedIndex("year"));
    index(dblp_author->CreateHashIndex("pid"));
    index(dblp_author->CreateHashIndex("aid"));
    index(citation->CreateHashIndex("pid"));
    index(author->CreateHashIndex("aid"));
    api::Session session(std::move(db));
    auto result = session.Enumerate(b->request);
    if (!result.ok()) {
      state.SkipWithError("cold Enumerate failed");
      return;
    }
    benchmark::DoNotOptimize(result->records.size());
  }
}
BENCHMARK(BM_ColdStartFromCsv)->Unit(benchmark::kMillisecond);

void BM_WarmStartFromSnapshot(benchmark::State& state) {
  StorageBench* b = GetStorageBench();
  for (auto _ : state) {
    auto reopened = api::Session::OpenFromSnapshot(b->store_dir);
    if (!reopened.ok()) {
      state.SkipWithError("OpenFromSnapshot failed");
      return;
    }
    auto session = std::move(reopened).TakeValue();
    auto result = session->Enumerate(b->request);
    if (!result.ok()) {
      state.SkipWithError("warm Enumerate failed");
      return;
    }
    benchmark::DoNotOptimize(result->records.size());
  }
}
BENCHMARK(BM_WarmStartFromSnapshot)->Unit(benchmark::kMillisecond);

void BM_GraphAddNode(benchmark::State& state) {
  graphdb::GraphStore store;
  (void)store.CreateIndex("uidIndex", "uid");
  int64_t i = 0;
  for (auto _ : state) {
    graphdb::PropertyMap props;
    props["uid"] = graphdb::PropertyValue(i++ % 1024);
    benchmark::DoNotOptimize(store.AddNode({"uidIndex"}, std::move(props)));
  }
}
BENCHMARK(BM_GraphAddNode);

void BM_GraphHasPathChain(benchmark::State& state) {
  Micro* m = GetMicro();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphdb::HasPath(
        m->graph, m->chain.front(), m->chain.back(), "PREFERS"));
  }
}
BENCHMARK(BM_GraphHasPathChain)->Unit(benchmark::kMicrosecond);

void BM_CypherProfileListing(benchmark::State& state) {
  Micro* m = GetMicro();
  for (auto _ : state) {
    auto r = graphdb::RunCypher(
        m->graph,
        "START n=node(*) WHERE n.uid=1 RETURN n.intensity "
        "ORDER BY n.intensity DESC LIMIT 10");
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_CypherProfileListing)->Unit(benchmark::kMicrosecond);

}  // namespace

// Standard benchmark main plus an optional registry dump: when
// HYPRE_TELEMETRY_DUMP names a file, everything the benchmarks just pushed
// through the metrics registry (request counters, batch-shape histograms,
// admission gauges) is written there as JSON after the run — CI uploads it
// as an artifact next to the timing output.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_serving_divergence.load()) {
    std::fprintf(stderr,
                 "concurrent serving produced results diverging from the "
                 "serial baseline\n");
    return 1;
  }
  if (const char* dump_path = std::getenv("HYPRE_TELEMETRY_DUMP")) {
    std::ofstream out(dump_path);
    out << telemetry::MetricsRegistry::Global().ToJson() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed to write telemetry dump to %s\n",
                   dump_path);
      return 1;
    }
  }
  return 0;
}
