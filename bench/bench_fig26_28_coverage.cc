// Figures 26-28 — Growth of quantitative preferences and coverage.
//
// Paper: the graph turns qualitative preferences into quantitative ones —
// uid=2 grows from 36 to 172 usable quantitative preferences, uid=38437
// from 24 to 50 (Figs. 26/27) — and coverage over the dataset grows up to
// 336% versus quantitative-only (Fig. 28, QT / QL / QT+QL / HYPRE bars).
// Shapes to check: post-graph preference count strictly larger, HYPRE
// coverage >= QT+QL coverage with a large gain over QT alone.
#include <cstdio>

#include "bench_util.h"
#include "hypre/metrics.h"
#include "sqlparse/parser.h"

using namespace hypre;
using namespace hypre::bench;

namespace {

void RunForUser(const Workload& w, core::UserId uid, const char* tag) {
  core::ProbeEngine engine(&w.db, w.BaseQuery(), "dblp.pid");

  // Original quantitative predicates (positive intensity only, §4.3).
  std::vector<reldb::ExprPtr> qt;
  for (const auto& q : w.prefs.quantitative) {
    if (q.uid != uid || q.intensity <= 0) continue;
    qt.push_back(Unwrap(sqlparse::ParsePredicate(q.predicate)));
  }
  // Original qualitative predicates: left side always (it is preferred);
  // right side too when the strength is zero (equally preferred, §7.1.2).
  std::vector<reldb::ExprPtr> ql;
  for (const auto& q : w.prefs.qualitative) {
    if (q.uid != uid) continue;
    ql.push_back(Unwrap(sqlparse::ParsePredicate(q.left)));
    if (q.intensity == 0.0) {
      ql.push_back(Unwrap(sqlparse::ParsePredicate(q.right)));
    }
  }
  std::vector<reldb::ExprPtr> qt_ql = qt;
  qt_ql.insert(qt_ql.end(), ql.begin(), ql.end());

  // HYPRE: every positive-intensity node of the full graph.
  core::HypreGraph graph = w.BuildGraph(uid);
  core::HypreGraph quant_graph = w.BuildGraph(uid, /*with_qualitative=*/false);
  std::vector<reldb::ExprPtr> hypre_predicates;
  for (const auto& entry : graph.ListPreferences(uid)) {
    hypre_predicates.push_back(
        Unwrap(sqlparse::ParsePredicate(entry.predicate)));
  }

  size_t quant_before =
      quant_graph.ListPreferences(uid, /*include_negative=*/true).size();
  size_t quant_after =
      graph.ListPreferences(uid, /*include_negative=*/true).size();

  size_t cov_qt = Unwrap(core::Coverage(engine, qt));
  size_t cov_ql = Unwrap(core::Coverage(engine, ql));
  size_t cov_qt_ql = Unwrap(core::Coverage(engine, qt_ql));
  size_t cov_hypre = Unwrap(core::Coverage(engine, hypre_predicates));

  std::printf("\n=== user %s (uid=%lld) ===\n", tag, (long long)uid);
  std::printf("Figs. 26/27: quantitative preferences before graph = %zu, "
              "after graph = %zu (%.0f%%)\n",
              quant_before, quant_after,
              100.0 * (double)quant_after / (double)quant_before);
  std::printf("Fig. 28 coverage (distinct tuples):\n");
  std::printf("  %-12s %8zu\n", "QT", cov_qt);
  std::printf("  %-12s %8zu\n", "QL", cov_ql);
  std::printf("  %-12s %8zu\n", "QT+QL", cov_qt_ql);
  std::printf("  %-12s %8zu\n", "HYPRE_Graph", cov_hypre);
  std::printf("  HYPRE vs QT: %.0f%%   HYPRE vs QT+QL: %.0f%%\n",
              cov_qt ? 100.0 * (double)cov_hypre / (double)cov_qt : 0.0,
              cov_qt_ql ? 100.0 * (double)cov_hypre / (double)cov_qt_ql
                        : 0.0);
}

}  // namespace

int main() {
  auto w = Workload::Create();
  std::printf("Figures 26-28: preference growth and coverage\n");
  RunForUser(*w, w->user_a, "A");
  RunForUser(*w, w->user_b, "B");
  return 0;
}
