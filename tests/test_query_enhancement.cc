// Query enhancement (§4.6) on ProbeEngine: WHERE splicing, counting, key
// collection, caching, and group-level matching semantics.
#include <gtest/gtest.h>

#include "hypre/probe_engine.h"
#include "sqlparse/parser.h"
#include "workload/canonical.h"

namespace hypre {
namespace core {
namespace {

reldb::ExprPtr Parse(const std::string& text) {
  auto r = sqlparse::ParsePredicate(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : nullptr;
}

class QueryEnhancementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildDblpSampleDatabase(&db_).ok());
    base_.from = "dblp";
  }
  reldb::Database db_;
  reldb::Query base_;
};

TEST_F(QueryEnhancementTest, EnhanceSetsWhere) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  reldb::Query q = engine.Enhance(Parse("dblp.venue='VLDB'"));
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->ToString(), "dblp.venue='VLDB'");
  EXPECT_EQ(q.ToSql(), "SELECT * FROM dblp WHERE dblp.venue='VLDB'");
}

TEST_F(QueryEnhancementTest, EnhancePreservesHardConstraints) {
  // Base WHERE is a hard constraint; the preference is ANDed on top.
  base_.where = Parse("year>=2008");
  ProbeEngine engine(&db_, base_, "dblp.pid");
  reldb::Query q = engine.Enhance(Parse("dblp.venue='PVLDB'"));
  EXPECT_EQ(q.where->ToString(), "year>=2008 AND dblp.venue='PVLDB'");
  auto count = engine.CountMatching(Parse("dblp.venue='PVLDB'"));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 3u);  // t3, t4, t5 all >= 2008
}

TEST_F(QueryEnhancementTest, NullPredicateLeavesBaseQuery) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  reldb::Query q = engine.Enhance(nullptr);
  EXPECT_EQ(q.where, nullptr);
  auto count = engine.CountMatching(nullptr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 9u);
}

TEST_F(QueryEnhancementTest, CountAndKeys) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  auto count = engine.CountMatching(Parse("dblp.venue='SIGMOD'"));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 2u);
  auto keys = engine.MatchingKeys(Parse("dblp.venue='SIGMOD'"));
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 2u);
}

TEST_F(QueryEnhancementTest, CountCacheHitsOnRepeat) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  reldb::ExprPtr p = Parse("dblp.venue='VLDB'");
  ASSERT_TRUE(engine.CountMatching(p).ok());
  EXPECT_EQ(engine.stats().num_leaf_queries, 1u);
  EXPECT_EQ(engine.stats().num_cache_hits, 0u);
  ASSERT_TRUE(engine.CountMatching(p).ok());
  EXPECT_EQ(engine.stats().num_leaf_queries, 1u);
  EXPECT_EQ(engine.stats().num_cache_hits, 1u);
  // A structurally identical but distinct AST also hits (keyed by SQL text).
  ASSERT_TRUE(engine.CountMatching(Parse("dblp.venue='VLDB'")).ok());
  EXPECT_EQ(engine.stats().num_leaf_queries, 1u);
}

TEST_F(QueryEnhancementTest, GroupLevelSemanticsOnJoinedAuthors) {
  // Two author predicates ANDed must mean "papers having BOTH authors"
  // (see probe_engine.h): impossible per joined row, intended per key.
  reldb::Database db;
  {
    using reldb::Row;
    using reldb::Schema;
    using reldb::Value;
    using reldb::ValueType;
    auto dblp = db.CreateTable("dblp", Schema({{"pid", ValueType::kInt64},
                                               {"venue", ValueType::kString}}));
    ASSERT_TRUE(dblp.ok());
    (*dblp)->AppendUnchecked(Row{Value::Int(1), Value::Str("V")});
    (*dblp)->AppendUnchecked(Row{Value::Int(2), Value::Str("V")});
    ASSERT_TRUE((*dblp)->CreateHashIndex("pid").ok());
    auto da = db.CreateTable(
        "dblp_author",
        Schema({{"pid", ValueType::kInt64}, {"aid", ValueType::kInt64}}));
    ASSERT_TRUE(da.ok());
    // Paper 1 by authors 1 and 2; paper 2 by author 1 only.
    (*da)->AppendUnchecked(Row{Value::Int(1), Value::Int(1)});
    (*da)->AppendUnchecked(Row{Value::Int(1), Value::Int(2)});
    (*da)->AppendUnchecked(Row{Value::Int(2), Value::Int(1)});
    ASSERT_TRUE((*da)->CreateHashIndex("aid").ok());
    ASSERT_TRUE((*da)->CreateHashIndex("pid").ok());
  }
  reldb::Query base;
  base.from = "dblp";
  base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  ProbeEngine engine(&db, base, "dblp.pid");

  auto both = engine.CountMatching(
      Parse("dblp_author.aid=1 AND dblp_author.aid=2"));
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both.value(), 1u);  // only paper 1 has both authors
  auto either = engine.CountMatching(
      Parse("dblp_author.aid=1 OR dblp_author.aid=2"));
  ASSERT_TRUE(either.ok());
  EXPECT_EQ(either.value(), 2u);
  // NOT complements against the key universe.
  auto not_a2 = engine.CountMatching(Parse("NOT dblp_author.aid=2"));
  ASSERT_TRUE(not_a2.ok());
  EXPECT_EQ(not_a2.value(), 1u);  // paper 2
}

TEST_F(QueryEnhancementTest, StarvationAndFloodingIllustration) {
  // §4.6: ANDing two venue predicates starves (0 tuples); ORing them does
  // not.
  ProbeEngine engine(&db_, base_, "dblp.pid");
  auto starved = engine.CountMatching(
      Parse("dblp.venue='VLDB' AND dblp.venue='SIGMOD'"));
  ASSERT_TRUE(starved.ok());
  EXPECT_EQ(starved.value(), 0u);
  auto ored = engine.CountMatching(
      Parse("dblp.venue='VLDB' OR dblp.venue='SIGMOD'"));
  ASSERT_TRUE(ored.ok());
  EXPECT_EQ(ored.value(), 4u);
}

TEST_F(QueryEnhancementTest, InvalidPredicateSurfacesError) {
  ProbeEngine engine(&db_, base_, "dblp.pid");
  EXPECT_FALSE(engine.CountMatching(Parse("nosuch.column=1")).ok());
}

}  // namespace
}  // namespace core
}  // namespace hypre
