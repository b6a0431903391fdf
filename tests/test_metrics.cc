// Metric tests: selectivity, utility, coverage, similarity, overlap, and
// the combination-space bounds (Eq. 5.1-5.6).
#include <gtest/gtest.h>

#include "hypre/metrics.h"
#include "sqlparse/parser.h"
#include "workload/canonical.h"

namespace hypre {
namespace core {
namespace {

using reldb::Value;

reldb::ExprPtr Parse(const std::string& text) {
  return sqlparse::ParsePredicate(text).value();
}

TEST(MetricsTest, PrefSelectivity) {
  EXPECT_DOUBLE_EQ(PrefSelectivity(10, 2), 5.0);
  EXPECT_DOUBLE_EQ(PrefSelectivity(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(PrefSelectivity(10, 0), 0.0);
}

TEST(MetricsTest, UtilityWithFirstPageCap) {
  // §7.1.1: only the first 25 tuples count.
  EXPECT_DOUBLE_EQ(Utility(10, 2, 0.5), 10.0 / 2.0 * 0.5);
  EXPECT_DOUBLE_EQ(Utility(1000, 2, 0.5), 25.0 / 2.0 * 0.5);
  EXPECT_DOUBLE_EQ(Utility(1000, 2, 0.5, 0), 1000.0 / 2.0 * 0.5);  // uncapped
}

TEST(MetricsTest, CombinationCounts) {
  // Eq. 5.3 and Eq. 5.6 for N = 5 (the dissertation's example list).
  EXPECT_DOUBLE_EQ(CountAndCombinations(5), 31.0);
  EXPECT_DOUBLE_EQ(CountAndOrCombinations(5), 121.0);
  EXPECT_DOUBLE_EQ(CountAndCombinations(0), 0.0);
  EXPECT_DOUBLE_EQ(CountAndOrCombinations(0), 0.0);
  EXPECT_DOUBLE_EQ(CountAndCombinations(1), 1.0);
  EXPECT_DOUBLE_EQ(CountAndOrCombinations(1), 1.0);
  // Exponential growth: N=20 AND-only already past a million.
  EXPECT_GT(CountAndCombinations(20), 1e6);
  EXPECT_GT(CountAndOrCombinations(20), CountAndCombinations(20));
}

TEST(MetricsTest, CoverageUnionsDistinctTuples) {
  reldb::Database db;
  ASSERT_TRUE(workload::BuildDblpSampleDatabase(&db).ok());
  reldb::Query base;
  base.from = "dblp";
  ProbeEngine engine(&db, base, "dblp.pid");
  // VLDB (2) + PVLDB (3) overlap-free = 5; adding year>=2010 (4: t3 t4 t6
  // t8) overlaps t3, t4 -> 7 distinct.
  auto c1 = Coverage(engine, {Parse("dblp.venue='VLDB'"),
                              Parse("dblp.venue='PVLDB'")});
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1.value(), 5u);
  auto c2 = Coverage(engine, {Parse("dblp.venue='VLDB'"),
                              Parse("dblp.venue='PVLDB'"),
                              Parse("year>=2010")});
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2.value(), 7u);
  auto empty = Coverage(engine, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), 0u);
}

std::vector<Value> Keys(std::initializer_list<const char*> ids) {
  std::vector<Value> out;
  for (const char* id : ids) out.push_back(Value::Str(id));
  return out;
}

TEST(MetricsTest, SimilarityBasics) {
  EXPECT_DOUBLE_EQ(Similarity(Keys({"a", "b"}), Keys({"a", "b"})), 100.0);
  EXPECT_DOUBLE_EQ(Similarity(Keys({"a", "b"}), Keys({"b", "a"})), 100.0);
  EXPECT_DOUBLE_EQ(Similarity(Keys({"a", "b"}), Keys({"c", "d"})), 0.0);
  EXPECT_DOUBLE_EQ(Similarity(Keys({"a", "b", "c", "d"}), Keys({"a"})), 25.0);
  EXPECT_DOUBLE_EQ(Similarity({}, {}), 100.0);
  EXPECT_DOUBLE_EQ(Similarity(Keys({"a"}), {}), 0.0);
}

TEST(MetricsTest, OverlapOrderAgreement) {
  // Same common tuples, same relative order: 100%.
  EXPECT_DOUBLE_EQ(Overlap(Keys({"a", "x", "b"}), Keys({"a", "b", "y"})),
                   100.0);
  // Reversed relative order of the two common tuples: 0%.
  EXPECT_DOUBLE_EQ(Overlap(Keys({"a", "b"}), Keys({"b", "a"})), 0.0);
  // Half agree.
  EXPECT_DOUBLE_EQ(
      Overlap(Keys({"a", "b", "c", "d"}), Keys({"a", "c", "b", "d"})), 50.0);
  // Nothing in common: vacuously 100%.
  EXPECT_DOUBLE_EQ(Overlap(Keys({"a"}), Keys({"b"})), 100.0);
}

TEST(MetricsTest, RankAgreementTieAware) {
  using core::RankedTuple;
  auto rt = [](const char* k, double v) {
    return RankedTuple{Value::Str(k), v};
  };
  // Identical grading: 100%.
  std::vector<RankedTuple> a{rt("x", 0.9), rt("y", 0.5), rt("z", 0.1)};
  EXPECT_DOUBLE_EQ(RankAgreement(a, a), 100.0);
  // One inverted pair out of three comparable pairs: 2/3 concordant.
  std::vector<RankedTuple> b{rt("y", 0.9), rt("x", 0.5), rt("z", 0.1)};
  EXPECT_NEAR(RankAgreement(a, b), 200.0 / 3.0, 1e-9);
  // Ties are skipped rather than counted as disagreement.
  std::vector<RankedTuple> tied{rt("x", 0.5), rt("y", 0.5), rt("z", 0.1)};
  EXPECT_DOUBLE_EQ(RankAgreement(a, tied), 100.0);
  // Disjoint lists: vacuously 100.
  std::vector<RankedTuple> other{rt("q", 0.4)};
  EXPECT_DOUBLE_EQ(RankAgreement(a, other), 100.0);
}

TEST(MetricsTest, QuantOnlyListsIdenticalMeansPerfectScores) {
  // The §7.6.3 quantitative-only expectation: identical lists give 100/100.
  auto list = Keys({"p1", "p2", "p3", "p4"});
  EXPECT_DOUBLE_EQ(Similarity(list, list), 100.0);
  EXPECT_DOUBLE_EQ(Overlap(list, list), 100.0);
}

}  // namespace
}  // namespace core
}  // namespace hypre
