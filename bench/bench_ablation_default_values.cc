// Ablation — DEFAULT_VALUE strategy (extends Table 12 / §6.3.1).
//
// The dissertation lists the strategies but evaluates only the fixed 0.5
// seed. This ablation builds the focal users' graphs under every strategy
// and reports how the choice shifts (a) the distribution of derived
// intensities and (b) coverage — quantifying how much the "seed of the
// entire process" matters.
#include <cstdio>

#include "bench_util.h"
#include "hypre/metrics.h"
#include "sqlparse/parser.h"

using namespace hypre;
using namespace hypre::bench;

int main() {
  auto w = Workload::Create();
  core::ProbeEngine engine(&w->db, w->BaseQuery(), "dblp.pid");

  // The seed only matters for qualitative chains with NO user-provided
  // anchor (scenario 3 of §6.3); the focal users' chains are anchored, so
  // add a third, seed-dependent profile: the user with the longest
  // qualitative list among those with no author preference above the 0.1
  // cutoff (their whole author chain derives from the DEFAULT_VALUE).
  std::map<core::UserId, size_t> author_anchors;
  std::map<core::UserId, size_t> qual_counts;
  for (const auto& q : w->prefs.quantitative) {
    if (q.intensity > 0 &&
        q.predicate.find("aid") != std::string::npos) {
      ++author_anchors[q.uid];
    }
  }
  for (const auto& q : w->prefs.qualitative) ++qual_counts[q.uid];
  core::UserId seed_user = w->user_a;
  size_t best = 0;
  for (const auto& [uid, count] : qual_counts) {
    if (author_anchors.count(uid) > 0) continue;
    if (count > best) {
      best = count;
      seed_user = uid;
    }
  }

  const core::DefaultValueStrategy kStrategies[] = {
      core::DefaultValueStrategy::kFixed,
      core::DefaultValueStrategy::kMin,
      core::DefaultValueStrategy::kMinPositive,
      core::DefaultValueStrategy::kMax,
      core::DefaultValueStrategy::kMaxPositive,
      core::DefaultValueStrategy::kAvg,
      core::DefaultValueStrategy::kAvgPositive,
  };

  for (core::UserId uid : {w->user_a, w->user_b, seed_user}) {
    std::printf("\n=== uid=%lld%s ===\n", (long long)uid,
                uid == seed_user ? " (seed-dependent: no author anchors)"
                                 : "");
    std::printf("%-10s %8s %10s %10s %10s %9s\n", "strategy", "#prefs",
                "mean int.", "min int.", "max int.", "coverage");
    for (auto strategy : kStrategies) {
      core::HypreGraphConfig config;
      config.default_strategy = strategy;
      core::HypreGraph graph = w->BuildGraph(uid, true, config);
      auto entries = graph.ListPreferences(uid);
      double sum = 0.0;
      double lo = 2.0;
      double hi = -2.0;
      std::vector<reldb::ExprPtr> predicates;
      for (const auto& e : entries) {
        sum += e.intensity;
        lo = std::min(lo, e.intensity);
        hi = std::max(hi, e.intensity);
        predicates.push_back(Unwrap(sqlparse::ParsePredicate(e.predicate)));
      }
      size_t coverage = Unwrap(core::Coverage(engine, predicates));
      std::printf("%-10s %8zu %10.4f %10.4f %10.4f %9zu\n",
                  core::DefaultValueStrategyToString(strategy),
                  entries.size(),
                  entries.empty() ? 0.0 : sum / (double)entries.size(), lo,
                  hi, coverage);
    }
  }
  std::printf(
      "\nReading: anchored profiles are insensitive to the strategy (the "
      "seed never fires). For seed-dependent profiles the choice matters a "
      "lot: `min` can seed NEGATIVE values, pushing whole chains below zero "
      "and out of the usable (positive) profile — coverage collapses — "
      "while the positive-preserving strategies (default, max/max_pos, "
      "avg/avg_pos) keep every chain usable and only shift the intensity "
      "band.\n");
  return 0;
}
