// Cross-module edge cases not naturally covered by the per-module suites:
// deleted-node interactions, persistence of intensity-less nodes, ordering
// over joins, and workload configuration corners.
#include <gtest/gtest.h>

#include <sstream>

#include "graphdb/cypher_lite.h"
#include "graphdb/traversal.h"
#include "hypre/persistence.h"
#include "hypre/probe_engine.h"
#include "reldb/executor.h"
#include "sqlparse/parser.h"
#include "workload/dblp_generator.h"
#include "workload/preference_extraction.h"

namespace hypre {
namespace {

// --- graphdb with deletions -------------------------------------------------

TEST(GraphDeletedNodes, TraversalSkipsTombstones) {
  graphdb::GraphStore g;
  graphdb::NodeId a = g.AddNode({}, {});
  graphdb::NodeId b = g.AddNode({}, {});
  graphdb::NodeId c = g.AddNode({}, {});
  ASSERT_TRUE(g.AddEdge(a, b, "T").ok());
  ASSERT_TRUE(g.AddEdge(b, c, "T").ok());
  ASSERT_TRUE(graphdb::HasPath(g, a, c, "T"));
  ASSERT_TRUE(g.RemoveNode(b).ok());
  EXPECT_FALSE(graphdb::HasPath(g, a, c, "T"));
  EXPECT_EQ(graphdb::ReachableFrom(g, a, "T").size(), 1u);
  // Queries over the store never surface the tombstone.
  auto r = graphdb::RunCypher(g, "START n=node(*) RETURN id(n)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  // Accessors on the dead id fail cleanly.
  EXPECT_FALSE(g.GetNode(b).ok());
  EXPECT_FALSE(g.SetNodeProperty(b, "x", graphdb::PropertyValue(1.0)).ok());
  EXPECT_FALSE(g.AddLabel(b, "L").ok());
  EXPECT_TRUE(g.OutEdges(b).empty());
}

TEST(GraphDeletedNodes, CypherByIdOnDeletedNodeIsEmpty) {
  graphdb::GraphStore g;
  graphdb::NodeId a = g.AddNode({}, {});
  ASSERT_TRUE(g.RemoveNode(a).ok());
  auto r = graphdb::RunCypher(g, "START n=node(0) RETURN id(n)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

// --- persistence corner: nodes without intensity ------------------------------

TEST(PersistenceEdge, IntensityLessNodeRoundTrips) {
  core::HypreGraph graph;
  // RestoreNode can create a node without an intensity (a predicate parked
  // in the profile before any value is known).
  auto id = graph.RestoreNode(5, "x=1", std::nullopt, std::nullopt);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(graph.NodeIntensity(*id).has_value());
  std::stringstream buffer;
  ASSERT_TRUE(core::SaveGraph(graph, &buffer).ok());
  core::HypreGraph restored;
  ASSERT_TRUE(core::LoadGraph(&buffer, &restored).ok());
  graphdb::NodeId rid = restored.FindNode(5, "x=1");
  ASSERT_NE(rid, graphdb::kInvalidNode);
  EXPECT_FALSE(restored.NodeIntensity(rid).has_value());
  // Duplicate restore is rejected.
  EXPECT_FALSE(restored.RestoreNode(5, "x=1", 0.5,
                                    core::Provenance::kUser)
                   .ok());
}

// --- executor: ORDER BY a column from the joined table -----------------------

TEST(ExecutorEdge, OrderByJoinedColumn) {
  reldb::Database db;
  workload::DblpConfig config;
  config.num_papers = 120;
  config.num_authors = 40;
  config.num_venues = 4;
  config.num_communities = 2;
  config.seed = 31;
  ASSERT_TRUE(workload::GenerateDblp(config, &db).ok());
  reldb::Executor exec(&db);
  reldb::Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  q.select = {"dblp_author.aid"};
  q.order_by = "dblp_author.aid";
  q.order_desc = false;
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LE(r->rows[i - 1][0].AsInt(), r->rows[i][0].AsInt());
  }
}

TEST(ExecutorEdge, LimitLargerThanResult) {
  reldb::Database db;
  auto t = db.CreateTable("t", reldb::Schema({{"v", reldb::ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  (*t)->AppendUnchecked({reldb::Value::Int(1)});
  reldb::Executor exec(&db);
  reldb::Query q;
  q.from = "t";
  q.limit = 100;
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

// --- engine: empty-result predicates and NOT over the universe ---------------

TEST(EnhancerEdge, NotOverEverythingIsEmpty) {
  reldb::Database db;
  workload::DblpConfig config;
  config.num_papers = 100;
  config.num_authors = 30;
  config.num_venues = 3;
  config.num_communities = 2;
  config.seed = 5;
  ASSERT_TRUE(workload::GenerateDblp(config, &db).ok());
  reldb::Query base;
  base.from = "dblp";
  base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  core::ProbeEngine engine(&db, base, "dblp.pid");

  auto all = sqlparse::ParsePredicate("dblp.pid>=0");
  ASSERT_TRUE(all.ok());
  auto count_all = engine.CountMatching(*all);
  ASSERT_TRUE(count_all.ok());
  EXPECT_GT(count_all.value(), 0u);
  auto none = sqlparse::ParsePredicate("NOT dblp.pid>=0");
  ASSERT_TRUE(none.ok());
  auto count_none = engine.CountMatching(*none);
  ASSERT_TRUE(count_none.ok());
  EXPECT_EQ(count_none.value(), 0u);
}

// --- extraction configuration corners -----------------------------------------

TEST(ExtractionEdge, MinPapersFiltersUsers) {
  reldb::Database db;
  workload::DblpConfig config;
  config.num_papers = 400;
  config.num_authors = 150;
  config.num_venues = 5;
  config.num_communities = 3;
  config.seed = 9;
  ASSERT_TRUE(workload::GenerateDblp(config, &db).ok());
  workload::ExtractionConfig loose;
  workload::ExtractionConfig strict;
  strict.min_papers = 5;
  auto all_users = workload::ExtractPreferences(db, loose);
  auto few_users = workload::ExtractPreferences(db, strict);
  ASSERT_TRUE(all_users.ok());
  ASSERT_TRUE(few_users.ok());
  EXPECT_LT(few_users->per_user_counts.size(),
            all_users->per_user_counts.size());
  EXPECT_GT(few_users->per_user_counts.size(), 0u);
}

TEST(ExtractionEdge, UnlimitedNegativesGrowTheProfile) {
  reldb::Database db;
  workload::DblpConfig config;
  config.num_papers = 400;
  config.num_authors = 150;
  config.num_venues = 8;
  config.num_communities = 3;
  config.seed = 9;
  ASSERT_TRUE(workload::GenerateDblp(config, &db).ok());
  workload::ExtractionConfig capped;
  workload::ExtractionConfig unlimited;
  unlimited.max_negative_per_user = 0;
  auto capped_prefs = workload::ExtractPreferences(db, capped);
  auto unlimited_prefs = workload::ExtractPreferences(db, unlimited);
  ASSERT_TRUE(capped_prefs.ok());
  ASSERT_TRUE(unlimited_prefs.ok());
  EXPECT_GE(unlimited_prefs->num_negative_prefs,
            capped_prefs->num_negative_prefs);
}

// --- HypreGraph: qualitative listing with all labels ---------------------------

TEST(GraphListingEdge, ListQualitativeAllLabels) {
  core::HypreGraph graph;
  ASSERT_TRUE(graph.AddQualitative({1, "a=1", "b=2", 0.3}).ok());
  ASSERT_TRUE(graph.AddQualitative({1, "b=2", "a=1", 0.3}).ok());  // CYCLE
  auto prefers_only = graph.ListQualitative(1, /*prefers_only=*/true);
  auto all_labels = graph.ListQualitative(1, /*prefers_only=*/false);
  EXPECT_EQ(prefers_only.size(), 1u);
  EXPECT_EQ(all_labels.size(), 2u);
  bool saw_cycle = false;
  for (const auto& edge : all_labels) {
    if (edge.label == core::EdgeLabel::kCycle) saw_cycle = true;
  }
  EXPECT_TRUE(saw_cycle);
}

}  // namespace
}  // namespace hypre
