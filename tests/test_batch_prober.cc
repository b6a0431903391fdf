// BatchProber tests: randomized differential sweep of the batched, sharded
// probe kernels against the per-combination oracle (probe_oracle.h:
// BitsInto, then Count) across shard widths (1 word, 4 words,
// universe-in-one-shard) and thread counts (1, 4, 8 on a real work-stealing
// pool, auto); degenerate frontiers; the probe-statistics contract under
// prefetch; and every combination algorithm's records checked against the
// same oracle, identical across probe configurations. Which word kernels
// run is a build choice (-DHYPRE_SIMD=OFF selects the portable ones); the
// suite passes on either.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "hypre/parallel/task_pool.h"
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

// A real work-stealing pool for the parallel matrix entries: the machine
// running the tests may report 1 hardware thread (which would make the
// shared pool run everything inline), so the sweep pins an explicit 8-slot
// pool to genuinely exercise steals.
parallel::TaskPool* TestPool() {
  static parallel::TaskPool pool(7);  // 7 workers + caller = 8 slots
  return &pool;
}

// The shard-width / thread-count matrix every differential sweep runs:
// one-word shards (maximum shard count), small shards, and a shard wide
// enough to hold any test universe in one piece; serial, 4-way on the
// shared pool, 8-way on the explicit 8-slot pool, and num_threads = 0
// (auto-detect).
std::vector<ProbeOptions> OptionMatrix() {
  std::vector<ProbeOptions> matrix;
  for (size_t shard_words : {size_t{1}, size_t{4}, size_t{1} << 20}) {
    matrix.push_back(ProbeOptions{shard_words, 1});
    matrix.push_back(ProbeOptions{shard_words, 4});
    matrix.push_back(ProbeOptions{shard_words, 8, TestPool()});
    matrix.push_back(ProbeOptions{shard_words, 0, TestPool()});
  }
  return matrix;
}

std::string DescribeOptions(const ProbeOptions& options) {
  return "shard_words=" + std::to_string(options.shard_words) +
         " threads=" + std::to_string(options.num_threads);
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
    enhancer_ = std::make_unique<QueryEnhancer>(&db_, base, "p.pid");

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
  std::unique_ptr<QueryEnhancer> enhancer_;
  std::vector<PreferenceAtom> prefs_;
  Rng rng_;
};

TEST(BatchProber, CountBatchMatchesOracleAcrossShardWidthsAndThreads) {
  RandomWorkload w(1234);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());

  // Frontier with mixed shapes, duplicates, and the empty combination.
  std::vector<Combination> frontier;
  for (int i = 0; i < 40; ++i) frontier.push_back(w.RandomCombination(combiner));
  frontier.push_back(frontier.front());  // duplicate
  frontier.push_back(Combination{});     // degenerate: no groups

  std::vector<size_t> expected_counts = probe_oracle::Counts(prober, frontier);

  for (const ProbeOptions& options : OptionMatrix()) {
    SCOPED_TRACE(DescribeOptions(options));
    BatchProber batch(&prober, options);
    auto counts = batch.CountBatch(frontier);
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    EXPECT_EQ(*counts, expected_counts);

    // Degenerate: the empty frontier.
    auto empty_counts = batch.CountBatch({});
    ASSERT_TRUE(empty_counts.ok());
    EXPECT_TRUE(empty_counts->empty());
  }
}

TEST(BatchProber, CountExtensionsAndPairsMatchOracle) {
  RandomWorkload w(99);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());
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

  for (const ProbeOptions& options : OptionMatrix()) {
    SCOPED_TRACE(DescribeOptions(options));
    BatchProber batch(&prober, options);

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

TEST(BatchProber, SkewedFrontierMatchesOracleUnderWorkStealing) {
  // Steal-heavy shape: a frontier mixing many cheap single-member
  // combinations with a block of maximum-size ones, so seeded tile ranges
  // have wildly different costs and the pool must rebalance. Counts must
  // stay byte-identical to the oracle.
  RandomWorkload w(31337);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());
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

  for (size_t shard_words : {size_t{1}, size_t{4}}) {
    ProbeOptions options{shard_words, 8, TestPool()};
    SCOPED_TRACE(DescribeOptions(options));
    BatchProber batch(&prober, options);
    auto counts = batch.CountBatch(frontier);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(*counts, expected);
  }
}

TEST(BatchProber, MoreThreadsThanShardsStaysExact) {
  // Whatever the thread/shard ratio, the slot plan never hands a worker an
  // empty tile range and the per-slot partial counts still sum exactly.
  RandomWorkload w(2024);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());

  std::vector<Combination> frontier;
  for (int i = 0; i < 10; ++i) frontier.push_back(w.RandomCombination(combiner));
  std::vector<size_t> expected = probe_oracle::Counts(prober, frontier);

  // The test universe is a few hundred bits (<= 6 words), so shard_words of
  // {1 << 20, 3, 1} give ~1, 2-3, and 6+ shards respectively.
  for (size_t shard_words : {size_t{1} << 20, size_t{3}, size_t{1}}) {
    for (size_t num_threads : {size_t{2}, size_t{3}, size_t{5}, size_t{8},
                               size_t{16}}) {
      ProbeOptions options{shard_words, num_threads, TestPool()};
      SCOPED_TRACE(DescribeOptions(options));
      BatchProber batch(&prober, options);
      auto counts = batch.CountBatch(frontier);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(*counts, expected);
    }
  }
}

TEST(BatchProber, PureAndChainsMatchOracle) {
  // AND chains of every length (every group a single member) take
  // CountBatch's borrowed-pointer path, which never materializes a group
  // buffer; they must agree with the materializing oracle.
  RandomWorkload w(7);
  Combiner combiner(&w.prefs_);
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());
  std::vector<Combination> chains;
  Combination chain;
  for (size_t len = 1; len <= w.prefs_.size(); ++len) {
    chain = len == 1 ? combiner.Single(0) : combiner.AndExtend(chain, len - 1);
    // AndExtend always appends a new group, whatever the attribute keys.
    ASSERT_EQ(chain.groups.size(), len);
    chains.push_back(chain);
  }
  std::vector<size_t> expected = probe_oracle::Counts(prober, chains);
  for (const ProbeOptions& options : OptionMatrix()) {
    SCOPED_TRACE(DescribeOptions(options));
    auto counts = BatchProber(&prober, options).CountBatch(chains);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(*counts, expected);
  }
}

TEST(BatchProber, PrefetchedLeavesMatchOnDemandLeaves) {
  // Two engines over the same data: one bulk-prefetched, one probing leaf
  // by leaf. Every preference bitmap must come out identical.
  reldb::Database db;
  BuildMiniDblp(&db);
  QueryEnhancer prefetched(&db, MiniBaseQuery(), "dblp.pid");
  QueryEnhancer on_demand(&db, MiniBaseQuery(), "dblp.pid");
  std::vector<PreferenceAtom> prefs = MiniPreferences();

  std::vector<reldb::ExprPtr> exprs;
  for (const auto& pref : prefs) exprs.push_back(pref.expr);
  ASSERT_TRUE(prefetched.probe_engine().PrefetchLeaves(exprs).ok());

  for (const auto& pref : prefs) {
    auto a = prefetched.probe_engine().EvalBitmap(pref.expr);
    auto b = on_demand.probe_engine().EvalBitmap(pref.expr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << pref.predicate;
  }
}

TEST(BatchProber, ProbeStatisticsContract) {
  // Locks the statistics contract from probe_engine.h: one leaf query per
  // distinct leaf (prefetched or not), one cache hit per answered probe.
  reldb::Database db;
  BuildMiniDblp(&db);
  QueryEnhancer enhancer(&db, MiniBaseQuery(), "dblp.pid");
  const ProbeEngine& engine = enhancer.probe_engine();
  std::vector<PreferenceAtom> prefs = MiniPreferences();
  Combiner combiner(&prefs);
  CombinationProber prober(&combiner, &engine);
  BatchProber batch(&prober, ProbeOptions{4, 2});

  // Bulk prefetch: 5 preferences = 5 distinct leaves, ONE executor pass but
  // one counted leaf query per leaf; no probes answered yet.
  ASSERT_TRUE(prober.PrefetchAll().ok());
  EXPECT_EQ(engine.num_leaf_queries(), 5u);
  EXPECT_EQ(engine.num_cache_hits(), 0u);
  // Idempotent: nothing new to load.
  ASSERT_TRUE(prober.PrefetchAll().ok());
  EXPECT_EQ(engine.num_leaf_queries(), 5u);

  // A one-combination batch answers one probe from cache.
  ASSERT_TRUE(batch.CountBatch({combiner.MixedClause({0, 1})}).ok());
  EXPECT_EQ(engine.num_cache_hits(), 1u);
  EXPECT_EQ(engine.num_leaf_queries(), 5u);  // no new DB work

  // A batch of M combinations answers M probes.
  std::vector<Combination> frontier = {combiner.MixedClause({0, 1}),
                                       combiner.MixedClause({1, 2, 3}),
                                       combiner.MixedClause({0, 4})};
  ASSERT_TRUE(batch.CountBatch(frontier).ok());
  EXPECT_EQ(engine.num_cache_hits(), 4u);

  // An extension batch answers one probe per candidate.
  KeyBitmap base;
  ASSERT_TRUE(prober.BitsInto(combiner.Single(0), &base).ok());
  ASSERT_TRUE(batch.CountExtensions(base, {1, 2}).ok());
  EXPECT_EQ(engine.num_cache_hits(), 6u);

  // The CountMatching memo hit still counts (PR 1 behavior preserved).
  auto pred = prefs[0].expr;
  ASSERT_TRUE(engine.CountMatching(pred).ok());
  size_t hits_before = engine.num_cache_hits();
  ASSERT_TRUE(engine.CountMatching(pred).ok());
  EXPECT_EQ(engine.num_cache_hits(), hits_before + 1);
  EXPECT_EQ(engine.num_leaf_queries(), 5u);
}

// --- Algorithm records against the oracle -----------------------------------

void ExpectRecordsIdentical(const std::vector<CombinationRecord>& a,
                            const std::vector<CombinationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    EXPECT_EQ(a[i].num_predicates, b[i].num_predicates);
    EXPECT_EQ(a[i].num_tuples, b[i].num_tuples);
    EXPECT_EQ(a[i].intensity, b[i].intensity);  // exact, not approximate
    EXPECT_EQ(a[i].predicate_sql, b[i].predicate_sql);
    EXPECT_EQ(a[i].combination.SortedMembers(), b[i].combination.SortedMembers());
  }
}

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
  /// The algorithms run under the default options (inline, 512-word
  /// shards), tiny shards on the shared pool, and one-word shards on the
  /// explicit 8-slot pool: maximum stress on the tiling.
  static std::vector<ProbeOptions> Configurations() {
    return {ProbeOptions{}, ProbeOptions{2, 4},
            ProbeOptions{1, 8, TestPool()}};
  }

  void SetUp() override {
    combiner_ = std::make_unique<Combiner>(&w_.prefs_);
    prober_ = std::make_unique<CombinationProber>(
        combiner_.get(), &w_.enhancer_->probe_engine());
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
  std::vector<CombinationRecord> reference;
  for (const ProbeOptions& options : Configurations()) {
    SCOPED_TRACE(DescribeOptions(options));
    auto records = ExhaustiveAndCombinations(w_.prefs_, *w_.enhancer_, 20,
                                             options);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    probe_oracle::ExpectRecordsMatchOracle(*prober_, *records, "exhaustive");
    EXPECT_EQ(records->size(), applicable.size());
    EXPECT_EQ(MemberSets(*records), applicable);
    if (reference.empty()) reference = *records;
    ExpectRecordsIdentical(*records, reference);
  }
}

TEST_F(AlgorithmsMatchOracle, CombineTwoAndPartiallyCombineAllMatchOracle) {
  size_t n = w_.prefs_.size();
  for (CombineSemantics semantics :
       {CombineSemantics::kAnd, CombineSemantics::kAndOr}) {
    std::vector<CombinationRecord> reference;
    for (const ProbeOptions& options : Configurations()) {
      SCOPED_TRACE(DescribeOptions(options));
      auto records = CombineTwo(w_.prefs_, *w_.enhancer_, semantics, options);
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      ASSERT_EQ(records->size(), n * (n - 1) / 2);
      probe_oracle::ExpectRecordsMatchOracle(*prober_, *records,
                                             "combine-two");
      if (reference.empty()) reference = *records;
      ExpectRecordsIdentical(*records, reference);
    }
  }

  std::vector<CombinationRecord> reference;
  for (const ProbeOptions& options : Configurations()) {
    SCOPED_TRACE(DescribeOptions(options));
    auto records = PartiallyCombineAll(w_.prefs_, *w_.enhancer_, options);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_FALSE(records->empty());
    probe_oracle::ExpectRecordsMatchOracle(*prober_, *records,
                                           "partially-combine-all");
    if (reference.empty()) reference = *records;
    ExpectRecordsIdentical(*records, reference);
  }
}

TEST_F(AlgorithmsMatchOracle, PepsMatchesOracleAndExhaustive) {
  std::set<std::vector<size_t>> applicable = ApplicableSubsets();
  std::set<std::vector<size_t>> applicable_multi;
  for (const auto& members : applicable) {
    if (members.size() >= 2) applicable_multi.insert(members);
  }
  for (PepsMode mode : {PepsMode::kComplete, PepsMode::kApproximate}) {
    std::vector<CombinationRecord> reference;
    size_t reference_probes = 0;
    for (const ProbeOptions& options : Configurations()) {
      SCOPED_TRACE(DescribeOptions(options));
      Peps peps(&w_.prefs_, w_.enhancer_.get(), options);
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
      if (reference.empty()) {
        reference = *order;
        reference_probes = peps.num_expansion_probes();
      }
      ExpectRecordsIdentical(*order, reference);
      EXPECT_EQ(peps.num_expansion_probes(), reference_probes);
    }
  }
}

TEST_F(AlgorithmsMatchOracle, PepsTopKRanksEveryTupleByItsBestCombination) {
  // Oracle ranking: a tuple's intensity is the highest intensity among the
  // applicable combinations (and single preferences) it matches. In
  // complete mode PEPS sees every applicable combination, so each ranked
  // tuple must carry exactly that intensity, the ranking must be
  // non-increasing, and no unranked tuple may beat the last ranked one.
  const ProbeEngine& engine = w_.enhancer_->probe_engine();
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
    std::vector<RankedTuple> reference;
    for (const ProbeOptions& options : Configurations()) {
      SCOPED_TRACE(DescribeOptions(options));
      Peps peps(&w_.prefs_, w_.enhancer_.get(), options);
      auto topk = peps.TopK(kTopK, mode);
      ASSERT_TRUE(topk.ok()) << topk.status().ToString();
      ASSERT_EQ(topk->size(), kTopK);
      if (reference.empty()) reference = *topk;
      EXPECT_EQ(*topk, reference);
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
  CombinationProber prober(&combiner, &w.enhancer_->probe_engine());
  for (const BiasRandomPin& pin : BiasRandomPins()) {
    for (const ProbeOptions& options :
         {ProbeOptions{}, ProbeOptions{2, 4}, ProbeOptions{1, 8, TestPool()}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << pin.seed << " "
                                      << DescribeOptions(options));
      auto run = BiasRandomSelection(w.prefs_, *w.enhancer_, pin.seed, options);
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
}

}  // namespace
}  // namespace core
}  // namespace hypre
