// CombinationProber batch-count tests: randomized differential sweep of the
// batched, sharded probe kernels against the per-combination oracle
// (probe_oracle.h: BitsInto, then Count) across shard widths (1 word, widths
// that do and do not divide the word count, wider than the bitmap); a
// multi-shard universe at the default width with tombstoned ids; degenerate
// frontiers; one prober reused across frontiers; the probe-statistics
// contract under prefetch; and every combination algorithm's records
// checked against the same oracle. Which word kernels run is a build choice
// (-DHYPRE_SIMD=OFF selects the portable ones); the suite passes on either.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "hypre/algorithms/bias_random.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/algorithms/peps.h"
#include "hypre/batch_prober.h"
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

// The shard-width matrix every differential sweep runs. The random
// workload's universe is 300 keys = 5 words, so: one-word shards (maximum
// shard count), 2 and 3 (do not divide 5: a short tail shard), 4 (one full
// shard plus a one-word tail), 7 (wider than the bitmap: one short shard),
// the 512-word default, and a shard wide enough for any universe.
std::vector<size_t> OptionMatrix() {
  return {1, 2, 3, 4, 7, CombinationProber::kShardWords, size_t{1} << 20};
}

std::string DescribeWidth(size_t shard_words) {
  return "shard_words=" + std::to_string(shard_words);
}

/// Random papers/tags workload (same shape as the probe-engine fuzz) big
/// enough that the universe spans several bitmap words.
class RandomWorkload {
 public:
  explicit RandomWorkload(uint64_t seed) : rng_(seed) {
    auto papers =
        db_.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                     {"venue", ValueType::kString}}));
    EXPECT_TRUE(papers.ok());
    auto tags = db_.CreateTable(
        "tag", Schema({{"pid", ValueType::kInt64}, {"t", ValueType::kInt64}}));
    EXPECT_TRUE(tags.ok());
    const char* venues[] = {"V1", "V2", "V3", "V4"};
    for (int64_t pid = 0; pid < 300; ++pid) {
      (*papers)->AppendUnchecked(
          Row{Value::Int(pid), Value::Str(venues[rng_.NextBounded(4)])});
      size_t n = 1 + rng_.NextBounded(3);
      std::set<int64_t> used;
      for (size_t k = 0; k < n; ++k) {
        int64_t tag = rng_.NextInt(0, 7);
        if (used.insert(tag).second) {
          (*tags)->AppendUnchecked(Row{Value::Int(pid), Value::Int(tag)});
        }
      }
    }
    EXPECT_TRUE((*papers)->CreateHashIndex("venue").ok());
    EXPECT_TRUE((*tags)->CreateHashIndex("t").ok());
    EXPECT_TRUE((*tags)->CreateHashIndex("pid").ok());

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
    add("tag.t=3", 0.4);
    add("p.venue='V3'", 0.3);
    add("tag.t=4", 0.2);
    SortByIntensityDesc(&prefs_);
  }

  /// A random combination of 1..4 members (mixed AND/OR via the §4.6 rule).
  Combination RandomCombination(const Combiner& combiner) {
    size_t n = prefs_.size();
    size_t size = 1 + rng_.NextBounded(4);
    std::set<size_t> members;
    while (members.size() < size) members.insert(rng_.NextBounded(n));
    return combiner.MixedClause(
        std::vector<size_t>(members.begin(), members.end()));
  }

  reldb::Database db_;
  std::unique_ptr<ProbeEngine> engine_;
  std::vector<PreferenceAtom> prefs_;
  Rng rng_;
};

TEST(ProberBatch, CountBatchMatchesOracleAcrossShardWidths) {
  RandomWorkload w(1234);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, w.engine_.get());

  // Frontier with mixed shapes, duplicates, and the empty combination.
  std::vector<Combination> frontier;
  for (int i = 0; i < 40; ++i) frontier.push_back(w.RandomCombination(combiner));
  frontier.push_back(frontier.front());  // duplicate
  frontier.push_back(Combination{});     // degenerate: no groups

  std::vector<size_t> expected_counts = probe_oracle::Counts(prober, frontier);

  for (size_t shard_words : OptionMatrix()) {
    SCOPED_TRACE(DescribeWidth(shard_words));
    CombinationProber batch(&combiner, w.engine_.get(), shard_words);
    auto counts = batch.CountBatch(frontier);
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    EXPECT_EQ(*counts, expected_counts);

    // Degenerate: the empty frontier.
    auto empty_counts = batch.CountBatch({});
    ASSERT_TRUE(empty_counts.ok());
    EXPECT_TRUE(empty_counts->empty());
  }
}

TEST(ProberBatch, CountExtensionsAndPairsMatchOracle) {
  RandomWorkload w(99);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, w.engine_.get());
  size_t n = w.prefs_.size();

  Combination base_combination = w.RandomCombination(combiner);
  KeyBitmap base;
  ASSERT_TRUE(prober.BitsInto(base_combination, &base).ok());
  std::vector<size_t> candidates;
  for (size_t k = 0; k < n; ++k) candidates.push_back(k);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  std::vector<size_t> expected_ext = probe_oracle::ExtensionCounts(
      prober, combiner, base_combination, candidates);
  std::vector<size_t> expected_pairs =
      probe_oracle::PairCounts(prober, combiner, pairs);

  for (size_t shard_words : OptionMatrix()) {
    SCOPED_TRACE(DescribeWidth(shard_words));
    CombinationProber batch(&combiner, w.engine_.get(), shard_words);

    auto ext = batch.CountExtensions(base, candidates);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    EXPECT_EQ(*ext, expected_ext);
    auto no_ext = batch.CountExtensions(base, {});
    ASSERT_TRUE(no_ext.ok());
    EXPECT_TRUE(no_ext->empty());

    auto pair_counts = batch.CountPairs(pairs);
    ASSERT_TRUE(pair_counts.ok()) << pair_counts.status().ToString();
    EXPECT_EQ(*pair_counts, expected_pairs);
  }
}

TEST(ProberBatch, SkewedFrontierMatchesOracle) {
  // A frontier mixing many cheap single-member combinations with a block of
  // maximum-size ones, so the kernel alternates between the borrowed-pointer
  // and the materializing paths within one shard. Counts must stay
  // byte-identical to the oracle.
  RandomWorkload w(31337);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, w.engine_.get());
  size_t n = w.prefs_.size();

  std::vector<Combination> frontier;
  std::vector<size_t> all_members;
  for (size_t k = 0; k < n; ++k) all_members.push_back(k);
  for (int rep = 0; rep < 60; ++rep) {
    frontier.push_back(combiner.Single(rep % n));  // cheap: one member
  }
  for (int rep = 0; rep < 12; ++rep) {
    frontier.push_back(combiner.MixedClause(all_members));  // heavy: all 8
  }
  for (int rep = 0; rep < 60; ++rep) {
    frontier.push_back(combiner.Single((rep + 3) % n));
  }

  std::vector<size_t> expected = probe_oracle::Counts(prober, frontier);

  for (size_t shard_words : OptionMatrix()) {
    SCOPED_TRACE(DescribeWidth(shard_words));
    CombinationProber batch(&combiner, w.engine_.get(), shard_words);
    auto counts = batch.CountBatch(frontier);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(*counts, expected);
  }
}

TEST(ProberBatch, EveryShardWidthStaysExactWithReusedScratch) {
  // Every shard width from one word to past the 5-word bitmap, so every
  // shard boundary and every tail-shard length occurs. One prober per
  // width answers frontiers of different sizes back to back: its compiled
  // frontier and shard scratch are reused across calls, and no entry of a
  // larger earlier frontier may leak into a smaller later one.
  RandomWorkload w(2024);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, w.engine_.get());

  std::vector<Combination> big;
  for (int i = 0; i < 70; ++i) big.push_back(w.RandomCombination(combiner));
  std::vector<Combination> small(big.begin() + 5, big.begin() + 8);
  std::vector<size_t> expected_big = probe_oracle::Counts(prober, big);
  std::vector<size_t> expected_small = probe_oracle::Counts(prober, small);

  for (size_t shard_words = 1; shard_words <= 8; ++shard_words) {
    SCOPED_TRACE(testing::Message() << "shard_words=" << shard_words);
    CombinationProber batch(&combiner, w.engine_.get(), shard_words);
    for (int round = 0; round < 2; ++round) {
      auto counts = batch.CountBatch(big);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(*counts, expected_big);
      counts = batch.CountBatch(small);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(*counts, expected_small);
    }
  }
}

TEST(ProberBatch, PureAndChainsMatchOracle) {
  // AND chains of every length (every group a single member) take
  // CountBatch's borrowed-pointer path, which never materializes a group
  // buffer; they must agree with the materializing oracle.
  RandomWorkload w(7);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, w.engine_.get());
  std::vector<Combination> chains;
  Combination chain;
  for (size_t len = 1; len <= w.prefs_.size(); ++len) {
    chain = len == 1 ? combiner.Single(0) : combiner.AndExtend(chain, len - 1);
    // AndExtend always appends a new group, whatever the attribute keys.
    ASSERT_EQ(chain.groups.size(), len);
    chains.push_back(chain);
  }
  std::vector<size_t> expected = probe_oracle::Counts(prober, chains);
  for (size_t shard_words : OptionMatrix()) {
    SCOPED_TRACE(DescribeWidth(shard_words));
    auto counts = CombinationProber(&combiner, w.engine_.get(), shard_words)
                      .CountBatch(chains);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(*counts, expected);
  }
}

TEST(ProberBatch, DefaultWidthSpansSeveralShardsWithTombstones) {
  // Every other fixture's universe fits in one default-width shard. Here
  // 66,000 keys = 1,032 words: two full 512-word shards plus a partial
  // 8-word one. Leaves are loaded before a scattered set of deletes (some
  // in the partial shard), so the engine's cached leaves carry stale bits
  // at tombstoned ids, which no count may include.
  constexpr int64_t kKeys = 66000;
  reldb::Database db;
  auto papers = db.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                            {"a", ValueType::kInt64},
                                            {"b", ValueType::kInt64}}));
  ASSERT_TRUE(papers.ok());
  Rng rng(4242);
  for (int64_t pid = 0; pid < kKeys; ++pid) {
    (*papers)->AppendUnchecked(Row{Value::Int(pid),
                                   Value::Int(rng.NextInt(0, 5)),
                                   Value::Int(rng.NextInt(0, 7))});
  }
  // Refresh recomputes each deleted key with a key-pinned query.
  ASSERT_TRUE((*papers)->CreateHashIndex("pid").ok());
  reldb::Query base;
  base.from = "p";
  ProbeEngine engine(&db, base, "p.pid");

  std::vector<PreferenceAtom> prefs;
  for (const char* pred : {"p.a=0", "p.a=1", "p.a=2", "p.b=0", "p.b=1",
                           "p.b=2", "p.b=3"}) {
    auto atom = MakeAtom(pred, 0.9 - 0.1 * static_cast<double>(prefs.size()));
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
    prefs.push_back(std::move(atom.value()));
  }
  SortByIntensityDesc(&prefs);
  Combiner combiner(&prefs);
  CombinationProber prober(&combiner, &engine);
  ASSERT_TRUE(prober.PrefetchAll().ok());

  for (int64_t row = 5; row < kKeys; row += 97) {
    ASSERT_TRUE((*papers)->Delete(static_cast<reldb::RowId>(row)).ok());
  }
  ASSERT_TRUE((*papers)->Delete(kKeys - 1).ok());  // last word of last shard
  ASSERT_TRUE(engine.Refresh().ok());
  ASSERT_TRUE(engine.has_tombstones());
  auto universe = engine.UniverseBitmap();
  ASSERT_TRUE(universe.ok());
  ASSERT_GT((*universe)->num_words(), 2 * CombinationProber::kShardWords);
  ASSERT_NE((*universe)->num_words() % CombinationProber::kShardWords, 0u);

  size_t n = prefs.size();
  std::vector<Combination> frontier;
  for (size_t i = 0; i < n; ++i) frontier.push_back(combiner.Single(i));
  for (int i = 0; i < 40; ++i) {
    size_t size = 1 + rng.NextBounded(4);
    std::set<size_t> members;
    while (members.size() < size) members.insert(rng.NextBounded(n));
    frontier.push_back(combiner.MixedClause(
        std::vector<size_t>(members.begin(), members.end())));
  }
  size_t passes_before = engine.stats().num_shard_passes;
  auto counts = prober.CountBatch(frontier);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(engine.stats().num_shard_passes - passes_before, 3u);
  EXPECT_EQ(*counts, probe_oracle::Counts(prober, frontier));
  // Single preferences also agree with the engine's own expression path.
  for (size_t i = 0; i < n; ++i) {
    auto expected = engine.CountMatching(prefs[i].expr);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*counts)[i], *expected) << prefs[i].predicate;
  }

  Combination base_combination = combiner.MixedClause({0, 1});
  KeyBitmap base_bits;
  ASSERT_TRUE(prober.BitsInto(base_combination, &base_bits).ok());
  std::vector<size_t> candidates;
  for (size_t k = 0; k < n; ++k) candidates.push_back(k);
  auto ext = prober.CountExtensions(base_bits, candidates);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_EQ(*ext, probe_oracle::ExtensionCounts(prober, combiner,
                                                base_combination, candidates));

  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  auto pair_counts = prober.CountPairs(pairs);
  ASSERT_TRUE(pair_counts.ok()) << pair_counts.status().ToString();
  EXPECT_EQ(*pair_counts, probe_oracle::PairCounts(prober, combiner, pairs));
}

TEST(ProberBatch, BorrowedLeavesAreMaskedAtEverySite) {
  // The prober borrows the engine's cached leaves unmasked, so its three
  // mask sites are the only thing keeping tombstoned keys out: BitsInto's
  // final AND, the mask group Compile appends (CountBatch), and the third
  // operand of the AND-count kernel (CountPairs, CountExtensions). A key
  // deleted after its leaves were cached keeps its stale bits; dropping
  // any one site makes one of the checks below count it.
  reldb::Database db;
  auto papers = db.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                            {"a", ValueType::kInt64},
                                            {"b", ValueType::kInt64}}));
  ASSERT_TRUE(papers.ok());
  for (int64_t pid = 0; pid < 200; ++pid) {
    (*papers)->AppendUnchecked(
        Row{Value::Int(pid), Value::Int(pid % 3), Value::Int(pid % 4)});
  }
  ASSERT_TRUE((*papers)->CreateHashIndex("pid").ok());
  reldb::Query base;
  base.from = "p";
  ProbeEngine engine(&db, base, "p.pid");
  std::vector<PreferenceAtom> prefs;
  for (const char* pred : {"p.a=0", "p.a=1", "p.b=0", "p.b=1", "p.b=2"}) {
    auto atom = MakeAtom(pred, 0.9 - 0.1 * static_cast<double>(prefs.size()));
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
    prefs.push_back(std::move(atom.value()));
  }
  SortByIntensityDesc(&prefs);
  Combiner combiner(&prefs);
  CombinationProber prober(&combiner, &engine);
  ASSERT_TRUE(prober.PrefetchAll().ok());

  // pid 0 matches a=0 and b=0; pid 13 matches a=1 and b=1. Delete both
  // (row id == pid) plus a few more.
  for (reldb::RowId row : {0, 13, 24, 37, 50, 101, 199}) {
    ASSERT_TRUE((*papers)->Delete(row).ok());
  }
  ASSERT_TRUE(engine.Refresh().ok());
  ASSERT_TRUE(engine.has_tombstones());
  // The stale bits are really there: the borrowed leaf still holds the
  // tombstoned key's id.
  auto universe = engine.UniverseBitmap();
  ASSERT_TRUE(universe.ok());
  auto leaf = engine.UnmaskedLeafBitmap(prefs[0].expr);
  ASSERT_TRUE(leaf.ok() && *leaf != nullptr);
  auto borrowed = prober.PreferenceBits(0);
  ASSERT_TRUE(borrowed.ok());
  EXPECT_EQ(*borrowed, *leaf);
  KeyBitmap stale = **leaf;
  stale.AndNotWith(**universe);
  ASSERT_TRUE(stale.Any()) << "no stale bit left to mask";

  size_t n = prefs.size();
  std::vector<Combination> frontier;
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < n; ++i) {
    frontier.push_back(combiner.Single(i));
    for (size_t j = i + 1; j < n; ++j) {
      frontier.push_back(combiner.AndExtend(combiner.Single(i), j));
      pairs.emplace_back(i, j);
    }
  }
  frontier.push_back(combiner.MixedClause({0, 1, 2}));
  frontier.push_back(combiner.MixedClause({2, 3, 4}));

  // BitsInto against the engine's own evaluation (which masks its leaves
  // independently of the prober), bitmap for bitmap.
  KeyBitmap bits;
  for (const Combination& combination : frontier) {
    ASSERT_TRUE(prober.BitsInto(combination, &bits).ok());
    auto expected = engine.EvalBitmap(combiner.BuildExpr(combination));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(bits, *expected) << combiner.ToSql(combination);
    if (combination.groups.size() > 1 &&
        std::all_of(combination.groups.begin(), combination.groups.end(),
                    [](const auto& g) { return g.members.size() == 1; })) {
      std::vector<size_t> members = combination.SortedMembers();
      KeyBitmap span_bits;
      ASSERT_TRUE(prober.BitsInto(members, &span_bits).ok());
      EXPECT_EQ(span_bits, *expected) << combiner.ToSql(combination);
    }
  }
  auto counts = prober.CountBatch(frontier);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(*counts, probe_oracle::Counts(prober, frontier));
  auto pair_counts = prober.CountPairs(pairs);
  ASSERT_TRUE(pair_counts.ok()) << pair_counts.status().ToString();
  EXPECT_EQ(*pair_counts, probe_oracle::PairCounts(prober, combiner, pairs));
  // An unmasked base (the borrowed leaf itself) must still count only
  // live keys: the kernel's mask operand does it.
  std::vector<size_t> candidates;
  for (size_t k = 1; k < n; ++k) candidates.push_back(k);
  auto ext = prober.CountExtensions(**borrowed, candidates);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_EQ(*ext, probe_oracle::ExtensionCounts(prober, combiner,
                                                combiner.Single(0),
                                                candidates));
}

TEST(ProberBatch, PrefetchedLeavesMatchOnDemandLeaves) {
  // Two engines over the same data: one bulk-prefetched, one probing leaf
  // by leaf. Every preference bitmap must come out identical.
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine prefetched(&db, MiniBaseQuery(), "dblp.pid");
  ProbeEngine on_demand(&db, MiniBaseQuery(), "dblp.pid");
  std::vector<PreferenceAtom> prefs = MiniPreferences();

  std::vector<reldb::ExprPtr> exprs;
  for (const auto& pref : prefs) exprs.push_back(pref.expr);
  ASSERT_TRUE(prefetched.PrefetchLeaves(exprs).ok());

  for (const auto& pref : prefs) {
    auto a = prefetched.EvalBitmap(pref.expr);
    auto b = on_demand.EvalBitmap(pref.expr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << pref.predicate;
  }
}

TEST(ProberBatch, ProbeStatisticsContract) {
  // Locks the statistics contract from probe_engine.h: one leaf query per
  // distinct leaf (prefetched or not), one cache hit per answered probe.
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");
  std::vector<PreferenceAtom> prefs = MiniPreferences();
  Combiner combiner(&prefs);
  CombinationProber prober(&combiner, &engine, /*shard_words=*/4);

  // Bulk prefetch: 5 preferences = 5 distinct leaves, ONE executor pass but
  // one counted leaf query per leaf; no probes answered yet.
  ASSERT_TRUE(prober.PrefetchAll().ok());
  EXPECT_EQ(engine.stats().num_leaf_queries, 5u);
  EXPECT_EQ(engine.stats().num_cache_hits, 0u);
  // Idempotent: nothing new to load.
  ASSERT_TRUE(prober.PrefetchAll().ok());
  EXPECT_EQ(engine.stats().num_leaf_queries, 5u);

  // A one-combination batch answers one probe from cache.
  ASSERT_TRUE(prober.CountBatch({combiner.MixedClause({0, 1})}).ok());
  EXPECT_EQ(engine.stats().num_cache_hits, 1u);
  EXPECT_EQ(engine.stats().num_leaf_queries, 5u);  // no new DB work

  // A batch of M combinations answers M probes.
  std::vector<Combination> frontier = {combiner.MixedClause({0, 1}),
                                       combiner.MixedClause({1, 2, 3}),
                                       combiner.MixedClause({0, 4})};
  ASSERT_TRUE(prober.CountBatch(frontier).ok());
  EXPECT_EQ(engine.stats().num_cache_hits, 4u);

  // An extension batch answers one probe per candidate.
  KeyBitmap base;
  ASSERT_TRUE(prober.BitsInto(combiner.Single(0), &base).ok());
  ASSERT_TRUE(prober.CountExtensions(base, {1, 2}).ok());
  EXPECT_EQ(engine.stats().num_cache_hits, 6u);

  // The CountMatching memo hit still counts (PR 1 behavior preserved).
  auto pred = prefs[0].expr;
  ASSERT_TRUE(engine.CountMatching(pred).ok());
  size_t hits_before = engine.stats().num_cache_hits;
  ASSERT_TRUE(engine.CountMatching(pred).ok());
  EXPECT_EQ(engine.stats().num_cache_hits, hits_before + 1);
  EXPECT_EQ(engine.stats().num_leaf_queries, 5u);
}

// --- Algorithm records against the oracle -----------------------------------

/// Members of a combination in group order (the order a chain grew in).
std::vector<size_t> MembersInOrder(const Combination& combination) {
  std::vector<size_t> members;
  for (const auto& group : combination.groups) {
    members.insert(members.end(), group.members.begin(), group.members.end());
  }
  return members;
}

/// Sorted member sets of `records` with at least `min_size` members.
std::set<std::vector<size_t>> MemberSets(
    const std::vector<CombinationRecord>& records, size_t min_size = 1) {
  std::set<std::vector<size_t>> sets;
  for (const auto& record : records) {
    if (record.combination.NumPredicates() >= min_size) {
      sets.insert(record.combination.SortedMembers());
    }
  }
  return sets;
}

class AlgorithmsMatchOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    combiner_ = std::make_unique<Combiner>(&w_.prefs_);
    prober_ = std::make_unique<CombinationProber>(
        combiner_.get(), w_.engine_.get());
  }

  /// Every non-empty subset of the preference list whose oracle count is
  /// above zero, as sorted member lists.
  std::set<std::vector<size_t>> ApplicableSubsets() {
    std::set<std::vector<size_t>> applicable;
    size_t n = w_.prefs_.size();
    for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
      Combination combination;
      std::vector<size_t> members;
      for (size_t i = 0; i < n; ++i) {
        if (((mask >> i) & 1) == 0) continue;
        combination = members.empty() ? combiner_->Single(i)
                                      : combiner_->AndExtend(combination, i);
        members.push_back(i);
      }
      auto count = probe_oracle::Count(*prober_, combination);
      EXPECT_TRUE(count.ok());
      if (count.ok() && *count > 0) applicable.insert(members);
    }
    return applicable;
  }

  RandomWorkload w_{77};
  std::unique_ptr<Combiner> combiner_;
  std::unique_ptr<CombinationProber> prober_;
};

TEST_F(AlgorithmsMatchOracle, ExhaustiveIsExactlyTheApplicableSubsets) {
  std::set<std::vector<size_t>> applicable = ApplicableSubsets();
  ASSERT_FALSE(applicable.empty());
  auto records = ExhaustiveAndCombinations(w_.prefs_, *w_.engine_, 20);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  probe_oracle::ExpectRecordsMatchOracle(*prober_, *records, "exhaustive");
  EXPECT_EQ(records->size(), applicable.size());
  EXPECT_EQ(MemberSets(*records), applicable);
}

TEST_F(AlgorithmsMatchOracle, CombineTwoAndPartiallyCombineAllMatchOracle) {
  size_t n = w_.prefs_.size();
  for (CombineSemantics semantics :
       {CombineSemantics::kAnd, CombineSemantics::kAndOr}) {
    auto records = CombineTwo(w_.prefs_, *w_.engine_, semantics);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), n * (n - 1) / 2);
    probe_oracle::ExpectRecordsMatchOracle(*prober_, *records, "combine-two");
  }

  auto records = PartiallyCombineAll(w_.prefs_, *w_.engine_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  probe_oracle::ExpectRecordsMatchOracle(*prober_, *records,
                                         "partially-combine-all");
}

TEST_F(AlgorithmsMatchOracle, PepsMatchesOracleAndExhaustive) {
  std::set<std::vector<size_t>> applicable = ApplicableSubsets();
  std::set<std::vector<size_t>> applicable_multi;
  for (const auto& members : applicable) {
    if (members.size() >= 2) applicable_multi.insert(members);
  }
  for (PepsMode mode : {PepsMode::kComplete, PepsMode::kApproximate}) {
    Peps peps(&w_.prefs_, w_.engine_.get());
    auto order = peps.GenerateOrder(mode);
    ASSERT_TRUE(order.ok()) << order.status().ToString();
    probe_oracle::ExpectRecordsMatchOracle(*prober_, *order, "peps");
    for (const PairEntry& pair : peps.pairs()) {
      auto count = probe_oracle::Count(
          *prober_, combiner_->AndExtend(combiner_->Single(pair.i), pair.j));
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(pair.num_tuples, *count) << pair.i << "," << pair.j;
    }
    if (mode == PepsMode::kComplete) {
      EXPECT_EQ(MemberSets(*order), applicable_multi);
    }
  }
}

TEST_F(AlgorithmsMatchOracle, PepsTopKRanksEveryTupleByItsBestCombination) {
  // Oracle ranking: a tuple's intensity is the highest intensity among the
  // applicable combinations (and single preferences) it matches. In
  // complete mode PEPS sees every applicable combination, so each ranked
  // tuple must carry exactly that intensity, the ranking must be
  // non-increasing, and no unranked tuple may beat the last ranked one.
  const ProbeEngine& engine = *w_.engine_;
  std::unordered_map<Value, double, reldb::ValueHash> best;
  auto offer = [&](const Combination& combination, double intensity) {
    KeyBitmap bits;
    ASSERT_TRUE(prober_->BitsInto(combination, &bits).ok());
    for (const Value& key : engine.KeysOf(bits)) {
      auto [it, inserted] = best.emplace(key, intensity);
      if (!inserted && intensity > it->second) it->second = intensity;
    }
  };
  for (size_t i = 0; i < w_.prefs_.size(); ++i) {
    offer(combiner_->Single(i), w_.prefs_[i].intensity);
  }
  for (const auto& members : ApplicableSubsets()) {
    if (members.size() < 2) continue;
    Combination combination = combiner_->Single(members[0]);
    for (size_t m = 1; m < members.size(); ++m) {
      combination = combiner_->AndExtend(combination, members[m]);
    }
    offer(combination, combiner_->ComputeIntensity(combination));
  }

  constexpr size_t kTopK = 25;
  for (PepsMode mode : {PepsMode::kComplete, PepsMode::kApproximate}) {
    Peps peps(&w_.prefs_, w_.engine_.get());
    auto topk = peps.TopK(kTopK, mode);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    ASSERT_EQ(topk->size(), kTopK);
    if (mode != PepsMode::kComplete) continue;
    std::set<Value> ranked;
    for (size_t r = 0; r < topk->size(); ++r) {
      const RankedTuple& tuple = (*topk)[r];
      ASSERT_EQ(best.count(tuple.key), 1u) << "rank " << r;
      EXPECT_EQ(tuple.intensity, best.at(tuple.key)) << "rank " << r;
      if (r > 0) {
        EXPECT_LE(tuple.intensity, (*topk)[r - 1].intensity);
      }
      ranked.insert(tuple.key);
    }
    for (const auto& [key, intensity] : best) {
      if (ranked.count(key) == 0) {
        EXPECT_LE(intensity, topk->back().intensity);
      }
    }
  }
}

// Bias-random's draw sequence, records and valid/invalid tallies for three
// seeds on RandomWorkload(5), pinned from the last build that still had a
// per-combination scalar probe path (batched and scalar runs agreed there).
// Members are listed in chain order.
struct BiasRandomPin {
  uint64_t seed;
  size_t valid_checks;
  size_t invalid_checks;
  // (members, num_tuples) per record.
  std::vector<std::pair<std::vector<size_t>, size_t>> records;
};

const std::vector<BiasRandomPin>& BiasRandomPins() {
  static const std::vector<BiasRandomPin> pins = {
      {1, 14, 8,
       {{{0, 4, 3}, 3}, {{1, 2, 5}, 2}, {{2, 0, 3}, 1}, {{3, 2, 6}, 1},
        {{4, 6, 3}, 1}, {{5, 6}, 18}, {{6, 2}, 10}, {{7, 0, 3}, 1}}},
      {17, 15, 10,
       {{{0, 4, 3}, 3}, {{1, 7, 4}, 2}, {{2, 6, 5}, 3}, {{3, 4, 0}, 3},
        {{4, 1}, 24}, {{5, 1}, 11}, {{6, 7, 3}, 1}, {{7, 0, 2, 4}, 1}}},
      {123, 13, 9,
       {{{0, 7, 3}, 1}, {{1, 2, 7}, 2}, {{2, 4}, 8}, {{3, 1, 4}, 4},
        {{4, 0, 2}, 3}, {{5, 0, 2}, 1}, {{6, 2}, 10}, {{7, 1}, 15}}},
  };
  return pins;
}

TEST(BiasRandomOracle, MatchesPinnedRunsAndOracleCounts) {
  RandomWorkload w(5);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, w.engine_.get());
  for (const BiasRandomPin& pin : BiasRandomPins()) {
    SCOPED_TRACE(testing::Message() << "seed=" << pin.seed);
    auto run = BiasRandomSelection(w.prefs_, *w.engine_, pin.seed);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->valid_checks, pin.valid_checks);
    EXPECT_EQ(run->invalid_checks, pin.invalid_checks);
    ASSERT_EQ(run->records.size(), pin.records.size());
    for (size_t r = 0; r < pin.records.size(); ++r) {
      const CombinationRecord& record = run->records[r];
      EXPECT_EQ(MembersInOrder(record.combination), pin.records[r].first)
          << "record " << r;
      EXPECT_EQ(record.num_tuples, pin.records[r].second) << "record " << r;
      EXPECT_EQ(record.intensity,
                combiner.ComputeIntensity(record.combination));
    }
    probe_oracle::ExpectRecordsMatchOracle(prober, run->records,
                                           "bias-random");
  }
}

}  // namespace
}  // namespace core
}  // namespace hypre
