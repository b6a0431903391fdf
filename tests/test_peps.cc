// PEPS tests: pair-table precomputation, completeness of the Complete mode
// against the exhaustive oracle, approximate-mode pruning, and Top-K
// agreement with the brute-force tuple ranking.
#include <gtest/gtest.h>

#include <set>

#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/peps.h"
#include "hypre/ranking.h"
#include "test_fixtures.h"

namespace hypre {
namespace core {
namespace {

using testing_fixtures::BuildMiniDblp;
using testing_fixtures::MiniBaseQuery;
using testing_fixtures::MiniPreferences;

class PepsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildMiniDblp(&db_);
    engine_ = std::make_unique<ProbeEngine>(&db_, MiniBaseQuery(), "dblp.pid");
    prefs_ = MiniPreferences();
  }
  reldb::Database db_;
  std::unique_ptr<ProbeEngine> engine_;
  std::vector<PreferenceAtom> prefs_;
};

TEST_F(PepsTest, PairTableKeepsOnlyApplicablePairs) {
  Peps peps(&prefs_, engine_.get());
  ASSERT_TRUE(peps.PrecomputePairs().ok());
  // 8 applicable pairs by inspection (fixture comment).
  EXPECT_EQ(peps.pairs().size(), 8u);
  for (const auto& pair : peps.pairs()) {
    EXPECT_GT(pair.num_tuples, 0u);
  }
  // Sorted descending by combined intensity.
  for (size_t i = 0; i + 1 < peps.pairs().size(); ++i) {
    EXPECT_GE(peps.pairs()[i].intensity, peps.pairs()[i + 1].intensity);
  }
}

TEST_F(PepsTest, CompleteOrderMatchesExhaustiveOracle) {
  Peps peps(&prefs_, engine_.get());
  auto order = peps.GenerateOrder(PepsMode::kComplete);
  ASSERT_TRUE(order.ok()) << order.status().ToString();

  auto oracle = ExhaustiveAndCombinations(prefs_, *engine_);
  ASSERT_TRUE(oracle.ok());
  // The oracle includes singles; PEPS order covers sizes >= 2.
  std::set<std::vector<size_t>> oracle_sets;
  for (const auto& r : *oracle) {
    if (r.num_predicates >= 2) oracle_sets.insert(r.combination.SortedMembers());
  }
  std::set<std::vector<size_t>> peps_sets;
  for (const auto& r : *order) {
    peps_sets.insert(r.combination.SortedMembers());
  }
  // Each member set is emitted once: the expansion tree has no duplicates.
  EXPECT_EQ(peps_sets.size(), order->size());
  EXPECT_EQ(peps_sets, oracle_sets);
  // Descending intensity.
  for (size_t i = 0; i + 1 < order->size(); ++i) {
    EXPECT_GE((*order)[i].intensity, (*order)[i + 1].intensity);
  }
}

TEST_F(PepsTest, ApproximateIsSubsetOfComplete) {
  Peps complete(&prefs_, engine_.get());
  Peps approx(&prefs_, engine_.get());
  auto complete_order = complete.GenerateOrder(PepsMode::kComplete);
  auto approx_order = approx.GenerateOrder(PepsMode::kApproximate);
  ASSERT_TRUE(complete_order.ok());
  ASSERT_TRUE(approx_order.ok());
  std::set<std::vector<size_t>> complete_sets;
  for (const auto& r : *complete_order) {
    complete_sets.insert(r.combination.SortedMembers());
  }
  EXPECT_EQ(complete_sets.size(), complete_order->size());
  std::set<std::vector<size_t>> approx_sets;
  for (const auto& r : *approx_order) {
    EXPECT_TRUE(complete_sets.count(r.combination.SortedMembers()) > 0);
    approx_sets.insert(r.combination.SortedMembers());
  }
  EXPECT_EQ(approx_sets.size(), approx_order->size());
  EXPECT_LE(approx_order->size(), complete_order->size());
  // Every approximate seed beats the best single preference.
  for (const auto& r : *approx_order) {
    EXPECT_GT(r.intensity, prefs_.front().intensity);
  }
}

TEST_F(PepsTest, TopKMatchesBruteForceGroundTruth) {
  // The brute-force ranking scores each tuple by f_and over ALL matched
  // preferences; complete PEPS must reproduce it, because the full matched
  // set of every tuple is itself an applicable combination.
  auto truth = ScoreTuplesByPreferences(*engine_, prefs_);
  ASSERT_TRUE(truth.ok());

  Peps peps(&prefs_, engine_.get());
  auto topk = peps.TopK(truth->size(), PepsMode::kComplete);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ASSERT_EQ(topk->size(), truth->size());
  for (size_t i = 0; i < truth->size(); ++i) {
    EXPECT_NEAR((*topk)[i].intensity, (*truth)[i].intensity, 1e-9)
        << "rank " << i;
  }
  // Tuple sets agree rank-by-rank up to ties: compare multisets of
  // (intensity) and the full key sets.
  std::set<std::string> truth_keys;
  std::set<std::string> peps_keys;
  for (const auto& t : *truth) truth_keys.insert(t.key.ToString());
  for (const auto& t : *topk) peps_keys.insert(t.key.ToString());
  EXPECT_EQ(truth_keys, peps_keys);
}

TEST_F(PepsTest, TopKHonorsK) {
  Peps peps(&prefs_, engine_.get());
  auto top3 = peps.TopK(3, PepsMode::kComplete);
  ASSERT_TRUE(top3.ok());
  EXPECT_EQ(top3->size(), 3u);
  // Descending intensity.
  for (size_t i = 0; i + 1 < top3->size(); ++i) {
    EXPECT_GE((*top3)[i].intensity, (*top3)[i + 1].intensity);
  }
  // No duplicate tuples.
  std::set<std::string> keys;
  for (const auto& t : *top3) keys.insert(t.key.ToString());
  EXPECT_EQ(keys.size(), top3->size());
}

TEST_F(PepsTest, TopKCoversSinglePreferenceTuples) {
  // Paper 8 matches only aid=4... not in the preference list; paper 5
  // matches only aid=3 (single preference). Singles participation must
  // surface it when k is large.
  Peps peps(&prefs_, engine_.get());
  auto all = peps.TopK(100, PepsMode::kComplete);
  ASSERT_TRUE(all.ok());
  bool found_p5 = false;
  for (const auto& t : *all) {
    if (t.key.AsInt() == 5) {
      found_p5 = true;
      EXPECT_NEAR(t.intensity, 0.2, 1e-12);  // aid=3's own intensity
    }
    EXPECT_NE(t.key.AsInt(), 8);  // matches no preference: never ranked
  }
  EXPECT_TRUE(found_p5);
}

TEST_F(PepsTest, ExpansionProbesAreCounted) {
  Peps peps(&prefs_, engine_.get());
  ASSERT_TRUE(peps.GenerateOrder(PepsMode::kComplete).ok());
  EXPECT_GT(peps.num_expansion_probes(), 0u);
}

TEST(PepsEdge, EmptyAndSinglePreferenceLists) {
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");

  std::vector<PreferenceAtom> empty;
  Peps peps_empty(&empty, &engine);
  auto order = peps_empty.GenerateOrder(PepsMode::kComplete);
  ASSERT_TRUE(order.ok());
  EXPECT_TRUE(order->empty());
  auto topk = peps_empty.TopK(5, PepsMode::kComplete);
  ASSERT_TRUE(topk.ok());
  EXPECT_TRUE(topk->empty());

  std::vector<PreferenceAtom> one{MakeAtom("dblp.venue='V1'", 0.5).value()};
  Peps peps_one(&one, &engine);
  auto topk_one = peps_one.TopK(10, PepsMode::kComplete);
  ASSERT_TRUE(topk_one.ok());
  EXPECT_EQ(topk_one->size(), 3u);  // V1 papers 1, 2, 6
  for (const auto& t : *topk_one) {
    EXPECT_DOUBLE_EQ(t.intensity, 0.5);
  }
}

}  // namespace
}  // namespace core
}  // namespace hypre
