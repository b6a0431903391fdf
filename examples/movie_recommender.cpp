// Movie recommender: hybrid preferences over the Movie relation (Table 3).
//
// Demonstrates what makes the HYPRE model *hybrid*:
//  * quantitative preferences, including a NEGATIVE one ("I dislike horror")
//    — inexpressible in a purely qualitative model (§1.2);
//  * qualitative preferences ("comedy over drama") whose intensities are
//    converted into quantitative scores via Eq. 4.1/4.2, totally ordering
//    movies a qualitative model could only partially order;
//  * conflict handling: a cyclic statement is kept but quarantined (CYCLE).
#include <cstdio>

#include "example_util.h"
#include "hypre/api/session.h"
#include "hypre/hypre_graph.h"
#include "hypre/ranking.h"

using namespace hypre;
using examples::Unwrap;

int main() {
  api::Session session(examples::MakeMovieDatabase());
  const reldb::Database& db = *session.db();

  core::HypreGraph graph;
  const core::UserId uid = 7;

  // Quantitative: likes comedies a lot, dislikes horror outright.
  Unwrap(graph.AddQuantitative({uid, "movie.genre='comedy'", 0.8}));
  Unwrap(graph.AddQuantitative({uid, "movie.genre='horror'", -0.9}));

  // Qualitative: dramas are clearly preferred over thrillers (0.6), and
  // Spielberg slightly over Curtiz (0.2). None of these four predicates has
  // a user-given score — the graph mints them all.
  Unwrap(graph.AddQualitative(
      {uid, "movie.genre='drama'", "movie.genre='thriller'", 0.6}));
  Unwrap(graph.AddQualitative({uid, "movie.director='S. Spielberg'",
                               "movie.director='M. Curtiz'", 0.2}));

  // A contradictory follow-up ("thriller over drama") closes a cycle: it is
  // stored, labeled CYCLE, and excluded from ranking.
  auto cyclic = Unwrap(graph.AddQualitative(
      {uid, "movie.genre='thriller'", "movie.genre='drama'", 0.3}));
  std::printf("Contradictory insert handled as: %s edge\n\n",
              core::EdgeLabelToString(cyclic.label));

  std::printf("Derived profile (note computed/default provenance):\n");
  for (const auto& entry :
       graph.ListPreferences(uid, /*include_negative=*/true)) {
    std::printf("  %-36s %+.3f  (%s)\n", entry.predicate.c_str(),
                entry.intensity,
                core::ProvenanceToString(entry.provenance));
  }

  // Rank all movies. Negative preferences push horror below everything.
  // The session hands out the cached probe engine for this query spec.
  reldb::Query base;
  base.from = "movie";
  core::ProbeEngine* engine =
      Unwrap(session.GetEngine(base, "movie.movie_id"));
  std::vector<core::PreferenceAtom> atoms;
  for (const auto& entry :
       graph.ListPreferences(uid, /*include_negative=*/true)) {
    atoms.push_back(Unwrap(core::MakeAtom(entry.predicate, entry.intensity)));
  }
  auto ranked = Unwrap(core::ScoreTuplesByPreferences(*engine, atoms));

  std::printf("\nPersonalized movie ranking:\n");
  const reldb::Table* movies = db.GetTable("movie");
  for (const auto& tuple : ranked) {
    // Fetch the title for display.
    for (const auto& row : movies->rows()) {
      if (row[0].Equals(tuple.key)) {
        std::printf("  %+.3f  %-28s (%s, %s)\n", tuple.intensity,
                    row[1].AsString().c_str(), row[4].AsString().c_str(),
                    row[3].AsString().c_str());
      }
    }
  }
  std::printf(
      "\nA purely qualitative model could not even express the horror "
      "dislike;\na purely quantitative one had no score for drama/thriller/"
      "director\npredicates until the graph computed them.\n");
  return 0;
}
