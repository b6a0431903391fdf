// PEPS tests: pair-table precomputation, completeness of the Complete mode
// against the exhaustive oracle, approximate-mode pruning, and Top-K
// agreement with the brute-force tuple ranking; then differentials on an
// engine whose cached leaves carry stale bits at tombstoned (and recycled)
// ids: the records order runs return, budget truncation of order and Top-K
// runs, approximate mode, and Top-K against the exhaustive-oracle ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/random.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/peps.h"
#include "hypre/delta_engine.h"
#include "hypre/ranking.h"
#include "probe_oracle.h"
#include "test_fixtures.h"

namespace hypre {
namespace core {
namespace {

using reldb::Row;
using reldb::Schema;
using reldb::Value;
using reldb::ValueType;
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

// --- Tombstoned engine with recycled ids ------------------------------------

/// Papers and tags over `p JOIN tag`. Every preference leaf is loaded
/// before the tables mutate: papers are deleted (tombstoning their ids),
/// new papers are appended in a later slice (recycling those ids), and
/// more papers are deleted, each slice followed by a Refresh. The cached
/// leaves then carry stale bits at tombstoned ids, which no PEPS output
/// may show.
class TombstonedPeps : public ::testing::Test {
 protected:
  void SetUp() override {
    auto papers = db_.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                               {"venue", ValueType::kString}}));
    ASSERT_TRUE(papers.ok());
    papers_ = *papers;
    auto tags = db_.CreateTable(
        "tag", Schema({{"pid", ValueType::kInt64}, {"t", ValueType::kInt64}}));
    ASSERT_TRUE(tags.ok());
    tags_ = *tags;
    for (int i = 0; i < 300; ++i) AddPaper();
    ASSERT_TRUE(papers_->CreateHashIndex("pid").ok());
    ASSERT_TRUE(tags_->CreateHashIndex("pid").ok());
    reldb::Query base;
    base.from = "p";
    base.joins.push_back({"tag", "p.pid", "pid"});
    engine_ = std::make_unique<ProbeEngine>(&db_, base, "p.pid");

    auto add = [&](const std::string& pred, double intensity) {
      auto atom = MakeAtom(pred, intensity);
      ASSERT_TRUE(atom.ok()) << atom.status().ToString();
      prefs_.push_back(std::move(atom.value()));
    };
    add("p.venue='V1'", 0.9);
    add("p.venue='V2'", 0.8);
    add("tag.t=0", 0.7);
    add("tag.t=1", 0.6);
    add("tag.t=2", 0.5);
    add("tag.t=3", 0.45);
    add("p.venue='V4' OR tag.t=5", 0.35);  // compound: evaluated, not borrowed
    add("p.venue='V3'", 0.3);
    add("tag.t=4", 0.2);
    SortByIntensityDesc(&prefs_);
    std::vector<reldb::ExprPtr> exprs;
    for (const auto& pref : prefs_) exprs.push_back(pref.expr);
    ASSERT_TRUE(engine_->PrefetchLeaves(exprs).ok());

    DeletePapers(25);
    ASSERT_TRUE(engine_->Refresh().ok());
    for (int i = 0; i < 10; ++i) AddPaper();
    ASSERT_TRUE(engine_->Refresh().ok());
    DeletePapers(20);
    ASSERT_TRUE(engine_->Refresh().ok());
    ASSERT_TRUE(engine_->has_tombstones());
    ASSERT_GT(engine_->delta_engine().stats().keys_recycled, 0u);
    ASSERT_EQ(engine_->delta_engine().stats().full_rebuilds, 0u);
  }

  void AddPaper() {
    const char* venues[] = {"V1", "V2", "V3", "V4"};
    int64_t pid = next_pid_++;
    papers_->AppendUnchecked(
        Row{Value::Int(pid), Value::Str(venues[rng_.NextBounded(4)])});
    std::set<int64_t> used;
    for (size_t k = 1 + rng_.NextBounded(3); k > 0; --k) {
      int64_t tag = rng_.NextInt(0, 6);
      if (used.insert(tag).second) {
        tags_->AppendUnchecked(Row{Value::Int(pid), Value::Int(tag)});
      }
    }
  }

  void DeletePapers(size_t n) {
    for (size_t deleted = 0; deleted < n;) {
      reldb::RowId row = rng_.NextBounded(papers_->num_rows());
      if (papers_->is_deleted(row)) continue;
      ASSERT_TRUE(papers_->Delete(row).ok());
      ++deleted;
    }
  }

  /// One GenerateOrder (k == 0) or TopK (k > 0) run with a budget
  /// (0 = unlimited), as the API's "peps" row calls them.
  struct BudgetedRun {
    std::vector<CombinationRecord> order;
    std::vector<RankedTuple> top_k;
    bool truncated = false;
    size_t spent = 0;
  };
  BudgetedRun Run(size_t k, PepsMode mode, size_t budget_limit) {
    BudgetedRun run;
    ProbeBudget budget(budget_limit);
    EnumerationControl control;
    control.budget = &budget;
    control.truncated = &run.truncated;
    Peps peps(&prefs_, engine_.get());
    if (k > 0) {
      auto top_k = peps.TopK(k, mode, control);
      EXPECT_TRUE(top_k.ok()) << top_k.status().ToString();
      if (top_k.ok()) run.top_k = std::move(*top_k);
    } else {
      auto order = peps.GenerateOrder(mode, control);
      EXPECT_TRUE(order.ok()) << order.status().ToString();
      if (order.ok()) run.order = std::move(*order);
    }
    run.spent = budget.spent();
    return run;
  }

  reldb::Database db_;
  reldb::Table* papers_ = nullptr;
  reldb::Table* tags_ = nullptr;
  std::unique_ptr<ProbeEngine> engine_;
  std::vector<PreferenceAtom> prefs_;
  Rng rng_{2024};
  int64_t next_pid_ = 0;
};

/// Records compare field by field: counts, the exact intensity, the SQL
/// text and the group structure of the combination.
void ExpectSameRecords(const std::vector<CombinationRecord>& got,
                       const std::vector<CombinationRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "record " << r);
    EXPECT_EQ(got[r].num_predicates, want[r].num_predicates);
    EXPECT_EQ(got[r].num_tuples, want[r].num_tuples);
    EXPECT_EQ(got[r].intensity, want[r].intensity);
    EXPECT_EQ(got[r].predicate_sql, want[r].predicate_sql);
    ASSERT_EQ(got[r].combination.groups.size(),
              want[r].combination.groups.size());
    for (size_t g = 0; g < got[r].combination.groups.size(); ++g) {
      EXPECT_EQ(got[r].combination.groups[g].attribute_key,
                want[r].combination.groups[g].attribute_key);
      EXPECT_EQ(got[r].combination.groups[g].members,
                want[r].combination.groups[g].members);
    }
  }
}

TEST_F(TombstonedPeps, OrderRecordsAreSortedCombinerChains) {
  Combiner combiner(&prefs_);
  CombinationProber prober(&combiner, engine_.get());
  for (PepsMode mode : {PepsMode::kComplete, PepsMode::kApproximate}) {
    SCOPED_TRACE(mode == PepsMode::kComplete ? "complete" : "approximate");
    BudgetedRun order = Run(0, mode, 0);
    ASSERT_FALSE(order.order.empty());
    EXPECT_EQ(Run(10, mode, 0).top_k.size(), 10u);
    EXPECT_TRUE(std::is_sorted(order.order.begin(), order.order.end(),
                               [](const CombinationRecord& a,
                                  const CombinationRecord& b) {
                                 return a.intensity > b.intensity;
                               }));
    // Each record is the chain of single-member groups Combiner builds:
    // bit-identical intensity, identical SQL, oracle tuple count.
    for (const CombinationRecord& record : order.order) {
      std::vector<size_t> members = record.combination.SortedMembers();
      Combination chain = combiner.Single(members[0]);
      for (size_t m = 1; m < members.size(); ++m) {
        chain = combiner.AndExtend(chain, members[m]);
      }
      EXPECT_EQ(record.intensity, combiner.ComputeIntensity(chain));
      EXPECT_EQ(record.predicate_sql, combiner.ToSql(chain));
      EXPECT_EQ(record.num_predicates, members.size());
    }
    probe_oracle::ExpectRecordsMatchOracle(prober, order.order, "peps");
  }
}

TEST_F(TombstonedPeps, BudgetedRunsTruncateAlike) {
  const size_t n = prefs_.size();
  const size_t num_pairs = n * (n - 1) / 2;
  BudgetedRun full = Run(0, PepsMode::kComplete, 0);
  ASSERT_GT(full.order.size(), 0u);
  std::map<std::vector<size_t>, const CombinationRecord*> full_by_members;
  for (const CombinationRecord& record : full.order) {
    full_by_members.emplace(record.combination.SortedMembers(), &record);
  }
  for (size_t limit : {size_t{1}, size_t{7}, num_pairs - 1, num_pairs,
                       num_pairs + 1, num_pairs + 5, num_pairs + 20,
                       size_t{100000}}) {
    SCOPED_TRACE(testing::Message() << "budget=" << limit);
    BudgetedRun order = Run(0, PepsMode::kComplete, limit);
    BudgetedRun top_k = Run(10, PepsMode::kComplete, limit);
    EXPECT_EQ(top_k.truncated, order.truncated);
    EXPECT_EQ(top_k.spent, order.spent);
    EXPECT_LE(order.spent, limit);
    // Complete mode reaches every applicable member set, so whatever a
    // budgeted run pops, from a whole or a truncated pair table, is one of
    // the unbudgeted run's records.
    ASSERT_LE(order.order.size(), full.order.size());
    for (const CombinationRecord& record : order.order) {
      auto it = full_by_members.find(record.combination.SortedMembers());
      ASSERT_NE(it, full_by_members.end()) << record.predicate_sql;
      ExpectSameRecords({record}, {*it->second});
    }
    if (!order.truncated) ExpectSameRecords(order.order, full.order);
  }
  EXPECT_TRUE(Run(0, PepsMode::kComplete, 1).truncated);
  EXPECT_FALSE(Run(0, PepsMode::kComplete, 100000).truncated);
}

TEST_F(TombstonedPeps, ApproximateKeepsExactlyTheRecordsOfBeatingSeeds) {
  // A member set's DFS path starts at the pair of its two smallest
  // members, so approximate mode returns exactly the complete records
  // whose seed pair beats the best single preference.
  BudgetedRun complete = Run(0, PepsMode::kComplete, 0);
  BudgetedRun approx = Run(0, PepsMode::kApproximate, 0);
  const double best_single = prefs_.front().intensity;
  std::vector<CombinationRecord> want;
  for (const CombinationRecord& record : complete.order) {
    std::vector<size_t> members = record.combination.SortedMembers();
    double seed = 1.0 - (1.0 - prefs_[members[0]].intensity) *
                            (1.0 - prefs_[members[1]].intensity);
    if (seed > best_single) want.push_back(record);
  }
  ASSERT_FALSE(want.empty());
  ASSERT_LT(want.size(), complete.order.size());
  std::map<std::vector<size_t>, const CombinationRecord*> got;
  for (const CombinationRecord& record : approx.order) {
    got.emplace(record.combination.SortedMembers(), &record);
  }
  ASSERT_EQ(got.size(), want.size());
  for (const CombinationRecord& record : want) {
    auto it = got.find(record.combination.SortedMembers());
    ASSERT_NE(it, got.end()) << record.predicate_sql;
    EXPECT_EQ(it->second->num_tuples, record.num_tuples);
    EXPECT_EQ(it->second->intensity, record.intensity);
  }
}

TEST_F(TombstonedPeps, TopKEqualsExhaustiveOracleRanking) {
  // Oracle: every applicable AND subset from the exhaustive enumeration,
  // each key scored by the best one it matches (a single scores its own
  // intensity, as PEPS ranks singles).
  Combiner combiner(&prefs_);
  CombinationProber prober(&combiner, engine_.get());
  auto subsets = ExhaustiveAndCombinations(prefs_, *engine_);
  ASSERT_TRUE(subsets.ok()) << subsets.status().ToString();
  std::unordered_map<Value, double, reldb::ValueHash> best;
  KeyBitmap bits;
  for (const CombinationRecord& record : *subsets) {
    double intensity = record.num_predicates == 1
                           ? prefs_[record.combination.groups[0].members[0]]
                                 .intensity
                           : record.intensity;
    ASSERT_TRUE(prober.BitsInto(record.combination, &bits).ok());
    for (const Value& key : engine_->KeysOf(bits)) {
      auto [it, inserted] = best.emplace(key, intensity);
      if (!inserted) it->second = std::max(it->second, intensity);
    }
  }
  // No tombstoned key may be ranked.
  auto live = engine_->MatchingKeys(nullptr);
  ASSERT_TRUE(live.ok());
  std::set<Value> live_keys(live->begin(), live->end());

  for (PepsMode mode : {PepsMode::kComplete, PepsMode::kApproximate}) {
    SCOPED_TRACE(mode == PepsMode::kComplete ? "complete" : "approximate");
    Peps peps(&prefs_, engine_.get());
    auto all = peps.TopK(0, mode);  // k == 0 ranks every matching key
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->size(), best.size());
    for (size_t r = 0; r < all->size(); ++r) {
      const RankedTuple& tuple = (*all)[r];
      ASSERT_EQ(live_keys.count(tuple.key), 1u) << tuple.key.ToString();
      if (mode == PepsMode::kComplete) {
        ASSERT_EQ(best.count(tuple.key), 1u) << tuple.key.ToString();
        EXPECT_EQ(tuple.intensity, best.at(tuple.key)) << "rank " << r;
      }
      if (r > 0) EXPECT_LE(tuple.intensity, (*all)[r - 1].intensity);
    }
    Peps again(&prefs_, engine_.get());
    auto top10 = again.TopK(10, mode);
    ASSERT_TRUE(top10.ok());
    EXPECT_EQ(*top10, std::vector<RankedTuple>(all->begin(),
                                               all->begin() + 10));
  }
}

}  // namespace
}  // namespace core
}  // namespace hypre
