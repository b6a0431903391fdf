// Delta subsystem tests: the mutation journal, tombstone deletes at the
// reldb layer, and the probe engine's incremental Refresh() — unit coverage
// for append/delete/recycle/compaction plus the randomized mutation
// differential: after ANY interleaving of appends, deletes, and Refresh()
// calls, every probe count, key set, and algorithm output must be
// byte-identical to a probe engine built from scratch on the mutated
// database, across shard widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "hypre/algorithms/peps.h"
#include "hypre/batch_prober.h"
#include "hypre/delta_engine.h"
#include "probe_oracle.h"
#include "reldb/csv.h"
#include "test_fixtures.h"

namespace hypre {
namespace core {
namespace {

using reldb::Row;
using reldb::RowId;
using reldb::Schema;
using reldb::Value;
using reldb::ValueType;
using testing_fixtures::BuildMiniDblp;
using testing_fixtures::MiniBaseQuery;
using testing_fixtures::MiniPreferences;

// Shard widths for the batch-kernel differentials. The mutating workloads
// start at 220 keys (4 words) and grow past it: 1 cuts whole shards, 3
// (and 4, once the universe grows) leave a short tail shard, 7 and 1 << 20
// are wider than the bitmap.
std::vector<size_t> OptionMatrix() { return {1, 3, 4, 7, size_t{1} << 20}; }

// --- reldb layer ----------------------------------------------------------

TEST(MutationJournal, RecordsAppendsAndDeletesInOrder) {
  reldb::Database db;
  auto t = db.CreateTable("t", Schema({{"x", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(db.journal().sequence(), 0u);

  (*t)->AppendUnchecked(Row{Value::Int(1)});
  ASSERT_TRUE((*t)->Append(Row{Value::Int(2)}).ok());
  ASSERT_TRUE((*t)->Delete(0).ok());
  ASSERT_EQ(db.journal().sequence(), 3u);

  EXPECT_EQ(db.journal().entry(0).kind, reldb::Mutation::Kind::kAppend);
  EXPECT_EQ(db.journal().entry(0).table, "t");
  EXPECT_EQ(db.journal().entry(0).row, 0u);
  EXPECT_EQ(db.journal().entry(2).kind, reldb::Mutation::Kind::kDelete);
  EXPECT_EQ(db.journal().entry(2).row, 0u);
  EXPECT_EQ(db.journal().num_appends(), 2u);
  EXPECT_EQ(db.journal().num_deletes(), 1u);

  size_t replayed = 0;
  db.journal().ForEachSince(1, [&](const reldb::Mutation&) { ++replayed; });
  EXPECT_EQ(replayed, 2u);
}

TEST(TableDelete, TombstonesRowAndErasesIndexes) {
  reldb::Database db;
  auto t = db.CreateTable(
      "t", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  for (int64_t i = 0; i < 5; ++i) {
    (*t)->AppendUnchecked(Row{Value::Int(i), Value::Int(i % 2)});
  }
  ASSERT_TRUE((*t)->CreateHashIndex("y").ok());
  ASSERT_TRUE((*t)->CreateOrderedIndex("x").ok());

  ASSERT_TRUE((*t)->Delete(2).ok());
  EXPECT_TRUE((*t)->is_deleted(2));
  EXPECT_EQ((*t)->num_rows(), 5u);       // RowId space is stable
  EXPECT_EQ((*t)->num_live_rows(), 4u);  // but one row is gone
  EXPECT_EQ((*t)->num_deleted(), 1u);

  // Unindexed immediately.
  const reldb::HashIndex* hash = (*t)->GetHashIndex("y");
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->Lookup(Value::Int(0)).size(), 2u);  // rows 0, 4 (not 2)
  const reldb::OrderedIndex* ordered = (*t)->GetOrderedIndex("x");
  ASSERT_NE(ordered, nullptr);
  EXPECT_EQ(ordered->Range(Value::Int(2), true, Value::Int(2), true).size(),
            0u);

  // Invisible to scans, with or without an index assist.
  reldb::Executor exec(&db);
  reldb::Query q;
  q.from = "t";
  auto rows = exec.Execute(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 4u);

  // Rebuilding an index skips tombstones.
  ASSERT_TRUE((*t)->CreateHashIndex("y").ok());
  EXPECT_EQ((*t)->GetHashIndex("y")->Lookup(Value::Int(0)).size(), 2u);

  // Error paths.
  EXPECT_FALSE((*t)->Delete(2).ok());   // already deleted
  EXPECT_FALSE((*t)->Delete(99).ok());  // out of range
}

// --- Refresh: append path -------------------------------------------------

/// CountMatching / MatchingKeys / KeysOf(EvalBitmap) of `engine` must agree
/// with a fresh engine built on the same database for every predicate.
void ExpectEngineMatchesFresh(const ProbeEngine& engine,
                              const reldb::Database& db,
                              const std::vector<reldb::ExprPtr>& predicates,
                              const char* context) {
  ProbeEngine fresh(&db, engine.base_query(), engine.key_column());
  for (size_t i = 0; i < predicates.size(); ++i) {
    SCOPED_TRACE(testing::Message()
                 << context << " predicate " << i << ": "
                 << (predicates[i] ? predicates[i]->ToString() : "<null>"));
    auto count = engine.CountMatching(predicates[i]);
    auto fresh_count = fresh.CountMatching(predicates[i]);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_TRUE(fresh_count.ok()) << fresh_count.status().ToString();
    EXPECT_EQ(*count, *fresh_count);

    auto keys = engine.MatchingKeys(predicates[i]);
    auto fresh_keys = fresh.MatchingKeys(predicates[i]);
    ASSERT_TRUE(keys.ok() && fresh_keys.ok());
    ASSERT_EQ(keys->size(), fresh_keys->size());
    for (size_t k = 0; k < keys->size(); ++k) {
      EXPECT_EQ((*keys)[k].Compare((*fresh_keys)[k]), 0)
          << "key " << k << ": " << (*keys)[k].ToString() << " vs "
          << (*fresh_keys)[k].ToString();
    }
  }
}

TEST(DeltaEngine, RefreshPicksUpAppends) {
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");

  auto v1 = MakeAtom("dblp.venue='V1'", 0.5);
  ASSERT_TRUE(v1.ok());
  auto count = engine.CountMatching(v1->expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);  // papers 1, 2, 6
  auto universe = engine.UniverseSize();
  ASSERT_TRUE(universe.ok());
  EXPECT_EQ(*universe, 8u);

  // New V1 paper with an author link, plus a link that gives paper 3 a new
  // author (no new key, but key 3 joins more rows).
  reldb::Table* dblp = db.GetTable("dblp");
  reldb::Table* da = db.GetTable("dblp_author");
  ASSERT_TRUE(dblp->Append(Row{Value::Int(9), Value::Str("V1"),
                               Value::Int(2009)})
                  .ok());
  ASSERT_TRUE(da->Append(Row{Value::Int(9), Value::Int(1)}).ok());
  ASSERT_TRUE(da->Append(Row{Value::Int(3), Value::Int(1)}).ok());

  // The engine is a snapshot: stale until Refresh.
  count = engine.CountMatching(v1->expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);

  auto epoch = engine.Refresh();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(engine.delta_engine().stats().appends_seen, 3u);
  EXPECT_EQ(engine.delta_engine().stats().keys_added, 1u);

  count = engine.CountMatching(v1->expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 4u);

  auto aid1 = MakeAtom("dblp_author.aid=1", 0.5);
  ASSERT_TRUE(aid1.ok());
  std::vector<reldb::ExprPtr> preds{nullptr, v1->expr, aid1->expr,
                                    reldb::MakeAnd(v1->expr, aid1->expr),
                                    reldb::MakeNot(aid1->expr)};
  ExpectEngineMatchesFresh(engine, db, preds, "after append refresh");
}

TEST(DeltaEngine, RefreshOnUntouchedTablesKeepsEpoch) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto other = db.CreateTable("other", Schema({{"x", ValueType::kInt64}}));
  ASSERT_TRUE(other.ok());

  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");
  ASSERT_TRUE(engine.UniverseSize().ok());

  (*other)->AppendUnchecked(Row{Value::Int(1)});
  auto epoch = engine.Refresh();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 0u);  // nothing relevant: no epoch change

  // Refresh with no journal entries at all is also a no-op.
  epoch = engine.Refresh();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 0u);
}

// --- Refresh: delete path -------------------------------------------------

TEST(DeltaEngine, RefreshHandlesDeletes) {
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");

  auto v1 = MakeAtom("dblp.venue='V1'", 0.5);
  auto aid2 = MakeAtom("dblp_author.aid=2", 0.5);
  ASSERT_TRUE(v1.ok() && aid2.ok());
  ASSERT_TRUE(engine.PrefetchLeaves({v1->expr, aid2->expr}).ok());

  // Delete paper 6 (a V1 paper; key leaves the universe) and the aid=2 link
  // of paper 1 (key 1 stays alive via its other links, but loses aid=2
  // membership).
  reldb::Table* dblp = db.GetTable("dblp");
  reldb::Table* da = db.GetTable("dblp_author");
  ASSERT_TRUE(dblp->Delete(5).ok());  // row 5 = pid 6
  // dblp_author rows: {1,1},{1,2},{2,1},... -> row 1 is the (1, aid=2) link.
  ASSERT_TRUE(da->Delete(1).ok());

  auto epoch = engine.Refresh();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
  const DeltaEngine::Stats& stats = engine.delta_engine().stats();
  EXPECT_EQ(stats.deletes_seen, 2u);
  EXPECT_EQ(stats.keys_tombstoned, 1u);  // pid 6
  EXPECT_GE(stats.keys_recomputed, 2u);  // pids 6 and 1
  EXPECT_TRUE(engine.has_tombstones());

  auto count = engine.CountMatching(v1->expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);  // papers 1, 2
  count = engine.CountMatching(aid2->expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);  // papers 3, 7 (1 lost its link, 6 is gone)
  count = engine.CountMatching(nullptr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 7u);  // universe shrank by pid 6

  std::vector<reldb::ExprPtr> preds{
      nullptr, v1->expr, aid2->expr, reldb::MakeOr(v1->expr, aid2->expr),
      reldb::MakeNot(v1->expr)};  // NOT must not resurrect tombstoned keys
  ExpectEngineMatchesFresh(engine, db, preds, "after delete refresh");
}

TEST(DeltaEngine, UnindexedDeletesRecomputeInOneKeyedPass) {
  // 66,000 rows with NO hash index on the key column, so recomputing a
  // deleted key cannot be an index lookup: a slice's affected keys must be
  // recomputed in one scan, not one scan per key. Rows past 65,000 repeat
  // every 64th key with other values, so some deletes leave their key
  // alive with changed leaf memberships while most tombstone it.
  constexpr int64_t kRows = 66000;
  constexpr int64_t kFirstRepeat = 65000;
  reldb::Database db;
  auto created = db.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                             {"a", ValueType::kInt64},
                                             {"b", ValueType::kInt64}}));
  ASSERT_TRUE(created.ok());
  reldb::Table* papers = *created;
  Rng rng(606);
  for (int64_t row = 0; row < kRows; ++row) {
    int64_t pid = row < kFirstRepeat ? row : (row - kFirstRepeat) * 64;
    papers->AppendUnchecked(Row{Value::Int(pid), Value::Int(rng.NextInt(0, 5)),
                                Value::Int(rng.NextInt(0, 7))});
  }
  reldb::Query base;
  base.from = "p";
  ProbeEngine engine(&db, base, "p.pid");
  std::vector<reldb::ExprPtr> preds{nullptr};
  for (const char* pred : {"p.a=0", "p.a=1", "p.a=2", "p.b=0", "p.b=3"}) {
    auto atom = MakeAtom(pred, 0.5);
    ASSERT_TRUE(atom.ok()) << atom.status().ToString();
    preds.push_back(atom->expr);
  }
  ASSERT_TRUE(engine.PrefetchLeaves(preds).ok());

  size_t deleted = 0;
  for (int64_t row = 5; row < kRows; row += 97, ++deleted) {
    ASSERT_TRUE(papers->Delete(static_cast<RowId>(row)).ok());
  }
  ASSERT_GE(deleted, 680u);
  ASSERT_TRUE(engine.Refresh().ok());
  const DeltaEngine::Stats& stats = engine.delta_engine().stats();
  EXPECT_EQ(stats.recompute_passes, 1u);
  EXPECT_EQ(stats.keys_recomputed, deleted);  // every deleted row's own key
  EXPECT_GT(stats.keys_tombstoned, 0u);
  EXPECT_LT(stats.keys_tombstoned, deleted);  // repeated keys stay alive
  EXPECT_EQ(stats.full_rebuilds, 0u);
  ExpectEngineMatchesFresh(engine, db, preds, "after one slice");

  // A second slice is a second pass, not one per key.
  for (int64_t row = kFirstRepeat + 1; row < kRows; row += 7) {
    if (papers->is_deleted(static_cast<RowId>(row))) continue;
    ASSERT_TRUE(papers->Delete(static_cast<RowId>(row)).ok());
  }
  ASSERT_TRUE(engine.Refresh().ok());
  EXPECT_EQ(stats.recompute_passes, 2u);
  ExpectEngineMatchesFresh(engine, db, preds, "after two slices");

  // Leaf bitmaps and the live mask, id by id: each set id of the patched
  // engine names a key the rebuilt engine holds in the same leaf.
  ProbeEngine rebuilt(&db, base, "p.pid");
  for (const auto& pred : preds) {
    auto patched_bits = engine.EvalBitmap(pred);
    auto rebuilt_keys = rebuilt.MatchingKeys(pred);
    ASSERT_TRUE(patched_bits.ok() && rebuilt_keys.ok());
    std::set<Value> want(rebuilt_keys->begin(), rebuilt_keys->end());
    std::set<Value> got;
    patched_bits->ForEachSet([&](uint32_t id) { got.insert(engine.KeyAt(id)); });
    EXPECT_EQ(got, want) << (pred ? pred->ToString() : "<universe>");
  }
  // Key order: ranks of live ids follow the Value order.
  auto universe = engine.UniverseBitmap();
  ASSERT_TRUE(universe.ok());
  std::vector<uint32_t> live = (*universe)->ToIds();
  for (size_t i = 1; i < live.size(); ++i) {
    EXPECT_EQ(engine.KeyRank(live[i - 1]) < engine.KeyRank(live[i]),
              engine.KeyAt(live[i - 1]).Compare(engine.KeyAt(live[i])) < 0);
  }
}

TEST(DeltaEngine, RecyclesTombstonedIdsForNewKeys) {
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");
  ASSERT_TRUE(engine.UniverseSize().ok());

  // Kill pid 8 (row 7, its only author link is row 11).
  ASSERT_TRUE(db.GetTable("dblp")->Delete(7).ok());
  ASSERT_TRUE(engine.Refresh().ok());
  EXPECT_EQ(engine.num_tombstones(), 1u);

  // A brand-new paper should take pid 8's dense id instead of growing.
  ASSERT_TRUE(db.GetTable("dblp")
                  ->Append(Row{Value::Int(42), Value::Str("V3"),
                               Value::Int(2042)})
                  .ok());
  ASSERT_TRUE(
      db.GetTable("dblp_author")->Append(Row{Value::Int(42), Value::Int(4)})
          .ok());
  ASSERT_TRUE(engine.Refresh().ok());
  EXPECT_EQ(engine.delta_engine().stats().keys_recycled, 1u);
  EXPECT_EQ(engine.num_tombstones(), 0u);
  auto size = engine.UniverseSize();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 8u);  // id space did not grow

  auto v3 = MakeAtom("dblp.venue='V3'", 0.5);
  ASSERT_TRUE(v3.ok());
  std::vector<reldb::ExprPtr> preds{nullptr, v3->expr,
                                    reldb::MakeNot(v3->expr)};
  ExpectEngineMatchesFresh(engine, db, preds, "after recycle");
}

TEST(DeltaEngine, CompactsViaEpochRebuildPastTombstoneThreshold) {
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");
  engine.set_delta_options(DeltaOptions{/*rebuild_tombstone_ratio=*/0.05});
  ASSERT_TRUE(engine.UniverseSize().ok());

  ASSERT_TRUE(db.GetTable("dblp")->Delete(7).ok());  // pid 8
  ASSERT_TRUE(db.GetTable("dblp")->Delete(4).ok());  // pid 5
  auto epoch = engine.Refresh();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(engine.delta_engine().stats().full_rebuilds, 1u);
  EXPECT_FALSE(engine.has_tombstones());

  auto size = engine.UniverseSize();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);  // compaction re-interned a tight id space

  auto v3 = MakeAtom("dblp.venue='V3'", 0.5);
  ASSERT_TRUE(v3.ok());
  std::vector<reldb::ExprPtr> preds{nullptr, v3->expr,
                                    reldb::MakeNot(v3->expr)};
  ExpectEngineMatchesFresh(engine, db, preds, "after compaction");
}

// --- CSV loads through the journal ----------------------------------------

TEST(DeltaEngine, CsvAppendAfterConstructionIsPickedUpByRefresh) {
  reldb::Database db;
  BuildMiniDblp(&db);
  ProbeEngine engine(&db, MiniBaseQuery(), "dblp.pid");
  ASSERT_TRUE(engine.UniverseSize().ok());

  std::istringstream csv(
      "pid,venue,year\n"
      "20,V1,2020\n"
      "21,V1,2021\n");
  auto loaded = reldb::AppendCsv(&csv, db.GetTable("dblp"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2u);
  std::istringstream links(
      "pid,aid\n"
      "20,1\n"
      "21,2\n");
  ASSERT_TRUE(reldb::AppendCsv(&links, db.GetTable("dblp_author")).ok());

  ASSERT_TRUE(engine.Refresh().ok());
  auto size = engine.UniverseSize();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10u);

  auto v1 = MakeAtom("dblp.venue='V1'", 0.5);
  ASSERT_TRUE(v1.ok());
  std::vector<reldb::ExprPtr> preds{nullptr, v1->expr};
  ExpectEngineMatchesFresh(engine, db, preds, "after CSV refresh");
}

TEST(AppendCsv, ErrorsNameTheOffendingRow) {
  reldb::Database db;
  BuildMiniDblp(&db);
  {
    std::istringstream csv(
        "pid,venue,year\n"
        "20,V1,2020\n"
        "bad,V1,2021\n");
    auto loaded = reldb::AppendCsv(&csv, db.GetTable("dblp"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("row 2"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("line 3"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    // Arity error: too few fields.
    std::istringstream csv(
        "pid,venue,year\n"
        "20,V1\n");
    auto loaded = reldb::AppendCsv(&csv, db.GetTable("dblp"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("row 1"), std::string::npos)
        << loaded.status().ToString();
  }
}

// --- Randomized mutation differential -------------------------------------

/// Random papers/tags workload whose tables keep mutating; mirrors the
/// batch-prober fuzz shape so predicates exercise indexes, full scans, and
/// multi-word universes. With `three_tables` the base query becomes the
/// chain p JOIN tag JOIN topic, so deletes of tag and topic rows re-join
/// through two hops.
class MutatingWorkload {
 public:
  explicit MutatingWorkload(uint64_t seed, bool three_tables = false)
      : rng_(seed) {
    auto papers =
        db_.CreateTable("p", Schema({{"pid", ValueType::kInt64},
                                     {"venue", ValueType::kString}}));
    EXPECT_TRUE(papers.ok());
    papers_ = *papers;
    auto tags = db_.CreateTable(
        "tag", Schema({{"pid", ValueType::kInt64}, {"t", ValueType::kInt64}}));
    EXPECT_TRUE(tags.ok());
    tags_ = *tags;
    for (int64_t pid = 0; pid < 220; ++pid) AddPaper();
    EXPECT_TRUE(papers_->CreateHashIndex("venue").ok());
    EXPECT_TRUE(papers_->CreateHashIndex("pid").ok());
    EXPECT_TRUE(tags_->CreateHashIndex("t").ok());
    EXPECT_TRUE(tags_->CreateHashIndex("pid").ok());

    base_.from = "p";
    base_.joins.push_back({"tag", "p.pid", "pid"});
    if (three_tables) {
      // Topics for tags 0..6 (some with two rows); tag 7 starts with none,
      // so its links do not join until a mutate adds one.
      auto topics = db_.CreateTable(
          "topic",
          Schema({{"t", ValueType::kInt64}, {"area", ValueType::kString}}));
      EXPECT_TRUE(topics.ok());
      topics_ = *topics;
      for (int64_t t = 0; t < 7; ++t) {
        AddTopic(t);
        if (rng_.NextBernoulli(0.3)) AddTopic(t);
      }
      EXPECT_TRUE(topics_->CreateHashIndex("t").ok());
      base_.joins.push_back({"topic", "tag.t", "t"});
    }

    auto add = [&](const std::string& pred, double intensity) {
      auto atom = MakeAtom(pred, intensity);
      ASSERT_TRUE(atom.ok()) << atom.status().ToString();
      prefs_.push_back(std::move(atom.value()));
    };
    add("p.venue='V1'", 0.9);
    add("p.venue='V2'", 0.8);
    add("tag.t=0", 0.7);
    add("tag.t=1", 0.6);
    add("tag.t>=5", 0.5);  // no ordered index on t: full-scan leaf
    add("tag.t=2", 0.4);
    add("p.venue='V3'", 0.3);
    add("tag.t=3", 0.2);
    if (three_tables) {
      add("topic.area='A0'", 0.65);
      add("topic.area='A1'", 0.35);
    }
    SortByIntensityDesc(&prefs_);
  }

  void AddTopic(int64_t t) {
    static const char* areas[] = {"A0", "A1", "A2"};
    topics_->AppendUnchecked(
        Row{Value::Int(t), Value::Str(areas[rng_.NextBounded(3)])});
  }

  void AddPaper() {
    static const char* venues[] = {"V1", "V2", "V3", "V4"};
    int64_t pid = next_pid_++;
    papers_->AppendUnchecked(
        Row{Value::Int(pid), Value::Str(venues[rng_.NextBounded(4)])});
    size_t n = 1 + rng_.NextBounded(3);
    std::set<int64_t> used;
    for (size_t k = 0; k < n; ++k) {
      int64_t tag = rng_.NextInt(0, 7);
      if (used.insert(tag).second) {
        tags_->AppendUnchecked(Row{Value::Int(pid), Value::Int(tag)});
      }
    }
  }

  /// One random mutation batch: a few appends (new papers, extra tag links
  /// for existing pids) and a few deletes of live rows in either table.
  void Mutate() {
    size_t new_papers = rng_.NextBounded(4);
    for (size_t i = 0; i < new_papers; ++i) AddPaper();
    size_t new_links = rng_.NextBounded(4);
    for (size_t i = 0; i < new_links; ++i) {
      // Existing, dead, or unseen pid — all must be handled.
      int64_t pid = rng_.NextInt(0, next_pid_ + 3);
      tags_->AppendUnchecked(
          Row{Value::Int(pid), Value::Int(rng_.NextInt(0, 7))});
    }
    DeleteSomeRows(papers_, rng_.NextBounded(4));
    DeleteSomeRows(tags_, rng_.NextBounded(5));
  }

  /// One mutate shaped like servebench's write_mix ones: a new paper (a
  /// key-table row) plus two tag links, then one live tag link deleted. On
  /// the three-table chain a topic row is sometimes appended or deleted too.
  void MutateWriteMix() {
    static const char* venues[] = {"V1", "V2", "V3", "V4"};
    int64_t pid = next_pid_++;
    papers_->AppendUnchecked(
        Row{Value::Int(pid), Value::Str(venues[rng_.NextBounded(4)])});
    int64_t t1 = rng_.NextInt(0, 7);
    int64_t t2 = (t1 + 1 + rng_.NextInt(0, 6)) % 8;
    for (int64_t t : {t1, t2}) {
      tags_->AppendUnchecked(Row{Value::Int(pid), Value::Int(t)});
    }
    DeleteOneLiveRow(tags_);
    if (topics_ != nullptr) {
      if (rng_.NextBernoulli(0.3)) AddTopic(rng_.NextInt(0, 7));
      if (rng_.NextBernoulli(0.3)) DeleteOneLiveRow(topics_);
    }
  }

  Combination RandomCombination(const Combiner& combiner) {
    size_t n = prefs_.size();
    size_t size = 1 + rng_.NextBounded(4);
    std::set<size_t> members;
    while (members.size() < size) members.insert(rng_.NextBounded(n));
    return combiner.MixedClause(
        std::vector<size_t>(members.begin(), members.end()));
  }

  /// Random predicate tree over the preference leaves (depth <= 2).
  reldb::ExprPtr RandomPredicate() {
    auto leaf = [&] { return prefs_[rng_.NextBounded(prefs_.size())].expr; };
    switch (rng_.NextBounded(5)) {
      case 0:
        return leaf();
      case 1:
        return reldb::MakeAnd(leaf(), leaf());
      case 2:
        return reldb::MakeOr(leaf(), leaf());
      case 3:
        return reldb::MakeNot(leaf());
      default:
        return reldb::MakeOr(reldb::MakeAnd(leaf(), leaf()),
                             reldb::MakeNot(leaf()));
    }
  }

  reldb::Database db_;
  reldb::Table* papers_ = nullptr;
  reldb::Table* tags_ = nullptr;
  reldb::Table* topics_ = nullptr;  // three-table chain only
  reldb::Query base_;
  std::vector<PreferenceAtom> prefs_;
  int64_t next_pid_ = 0;
  Rng rng_;

 private:
  void DeleteSomeRows(reldb::Table* table, size_t how_many) {
    for (size_t i = 0; i < how_many; ++i) {
      if (table->num_live_rows() == 0) return;
      RowId id = rng_.NextBounded(table->num_rows());
      if (!table->is_deleted(id)) ASSERT_TRUE(table->Delete(id).ok());
    }
  }

  void DeleteOneLiveRow(reldb::Table* table) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      RowId id = rng_.NextBounded(table->num_rows());
      if (!table->is_deleted(id)) {
        ASSERT_TRUE(table->Delete(id).ok());
        return;
      }
    }
  }
};

TEST(DeltaEngine, RandomizedMutationDifferential) {
  struct Run {
    uint64_t seed;
    bool three_tables;
    bool write_mix;  // mix write_mix-shaped mutates into the random ones
  };
  for (const Run& run : std::vector<Run>{{11, false, false},
                                         {29, false, false},
                                         {47, false, false},
                                         {19, false, true},
                                         {13, true, true},
                                         {31, true, true}}) {
    SCOPED_TRACE(testing::Message() << "seed=" << run.seed << " three_tables="
                                    << run.three_tables
                                    << " write_mix=" << run.write_mix);
    MutatingWorkload w(run.seed, run.three_tables);
    ProbeEngine engine(&w.db_, w.base_, "p.pid");
    Combiner combiner(&w.prefs_);
    CombinationProber prober(&combiner, &engine);
    ASSERT_TRUE(prober.PrefetchAll().ok());

    // Warm some probe state so Refresh has caches to patch.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine.CountMatching(w.RandomPredicate()).ok());
    }

    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE(testing::Message() << "round=" << round);
      // 1 or 2 mutation batches before the refresh: Refresh must absorb
      // arbitrary interleavings, not just single-batch slices.
      size_t batches = 1 + w.rng_.NextBounded(2);
      for (size_t b = 0; b < batches; ++b) {
        if (run.write_mix && w.rng_.NextBernoulli(0.5)) {
          w.MutateWriteMix();
        } else {
          w.Mutate();
        }
      }
      auto epoch = engine.Refresh();
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

      // Fresh reference engine + prober on the mutated database.
      ProbeEngine fresh(&w.db_, w.base_, "p.pid");
      CombinationProber fresh_prober(&combiner, &fresh);
      ASSERT_TRUE(fresh_prober.PrefetchAll().ok());

      // Raw predicate probes: counts and key sets.
      std::vector<reldb::ExprPtr> preds{nullptr};
      for (int i = 0; i < 12; ++i) preds.push_back(w.RandomPredicate());
      ExpectEngineMatchesFresh(engine, w.db_, preds, "differential");

      // Combination probes: oracle counts and key sets on the fresh engine,
      // then the refreshed engine's oracle and every batch kernel across the
      // shard-width matrix.
      std::vector<Combination> frontier;
      for (int i = 0; i < 12; ++i) {
        frontier.push_back(w.RandomCombination(combiner));
      }
      frontier.push_back(Combination{});  // degenerate
      std::vector<size_t> expected_counts =
          probe_oracle::Counts(fresh_prober, frontier);
      std::vector<std::vector<Value>> expected_keys;
      KeyBitmap scratch;
      for (const Combination& c : frontier) {
        ASSERT_TRUE(fresh_prober.BitsInto(c, &scratch).ok());
        expected_keys.push_back(fresh.KeysOf(scratch));
      }
      EXPECT_EQ(probe_oracle::Counts(prober, frontier), expected_counts);
      for (size_t f = 0; f < frontier.size(); ++f) {
        ASSERT_TRUE(prober.BitsInto(frontier[f], &scratch).ok());
        EXPECT_EQ(engine.KeysOf(scratch), expected_keys[f])
            << "oracle keys " << f;
      }
      // Extension and pair batches: base AND each preference, and every
      // preference pair, with the refreshed engine's live mask applied.
      const Combination& ext_base = frontier.front();
      std::vector<size_t> candidates;
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t i = 0; i < w.prefs_.size(); ++i) {
        candidates.push_back(i);
        for (size_t j = i + 1; j < w.prefs_.size(); ++j) {
          pairs.emplace_back(i, j);
        }
      }
      std::vector<size_t> expected_ext = probe_oracle::ExtensionCounts(
          fresh_prober, combiner, ext_base, candidates);
      std::vector<size_t> expected_pairs =
          probe_oracle::PairCounts(fresh_prober, combiner, pairs);
      KeyBitmap ext_base_bits;
      ASSERT_TRUE(prober.BitsInto(ext_base, &ext_base_bits).ok());
      // The long-lived prober counts from bitmaps it revalidated against
      // the new epoch; the per-width probers materialize theirs afresh.
      auto revalidated_counts = prober.CountBatch(frontier);
      ASSERT_TRUE(revalidated_counts.ok());
      EXPECT_EQ(*revalidated_counts, expected_counts);
      for (size_t shard_words : OptionMatrix()) {
        SCOPED_TRACE(testing::Message() << "shard_words=" << shard_words);
        CombinationProber batch(&combiner, &engine, shard_words);
        auto counts = batch.CountBatch(frontier);
        ASSERT_TRUE(counts.ok()) << counts.status().ToString();
        EXPECT_EQ(*counts, expected_counts);
        auto ext = batch.CountExtensions(ext_base_bits, candidates);
        ASSERT_TRUE(ext.ok()) << ext.status().ToString();
        EXPECT_EQ(*ext, expected_ext);
        auto pair_counts = batch.CountPairs(pairs);
        ASSERT_TRUE(pair_counts.ok()) << pair_counts.status().ToString();
        EXPECT_EQ(*pair_counts, expected_pairs);
      }
    }
  }
}

// Refresh merges the keys it appended or recycled into the existing key
// order instead of re-sorting. After every Refresh the KeyRank order of the
// live ids must be exactly what a fresh full sort of their values gives.
// The churn appends keys below, between and above the existing ones (and
// re-appends deleted values), deletes keys so their ids are tombstoned and
// later recycled, and crosses the compaction threshold, after which the
// order is rebuilt from scratch and merging resumes.
TEST(DeltaEngine, MergedKeyOrderMatchesFullSort) {
  reldb::Database db;
  auto created = db.CreateTable("k", Schema({{"id", ValueType::kInt64}}));
  ASSERT_TRUE(created.ok());
  reldb::Table* keys = *created;
  for (int64_t v = 0; v < 200; v += 10) {
    keys->AppendUnchecked(Row{Value::Int(v)});
  }
  ASSERT_TRUE(keys->CreateHashIndex("id").ok());
  reldb::Query base;
  base.from = "k";
  ProbeEngine engine(&db, base, "k.id");
  DeltaOptions options;
  options.rebuild_tombstone_ratio = 0.3;
  engine.set_delta_options(options);

  Rng rng(5);
  int64_t lowest = 0;
  int64_t highest = 190;
  for (int round = 0; round < 80; ++round) {
    SCOPED_TRACE(testing::Message() << "round=" << round);
    ASSERT_TRUE(engine.UniverseSize().ok());  // re-interns after compaction
    size_t appends = rng.NextBounded(5);
    for (size_t i = 0; i < appends; ++i) {
      int64_t v = 0;
      switch (rng.NextBounded(3)) {
        case 0:
          v = --lowest;
          break;
        case 1:
          v = rng.NextInt(lowest, highest);
          break;
        default:
          v = ++highest;
          break;
      }
      keys->AppendUnchecked(Row{Value::Int(v)});
    }
    // Every 20th round deletes about half the rows: past the threshold.
    size_t deletes = round % 20 == 19 ? keys->num_live_rows()
                                      : rng.NextBounded(4);
    for (size_t i = 0; i < deletes && keys->num_live_rows() > 1; ++i) {
      RowId id = rng.NextBounded(keys->num_rows());
      if (!keys->is_deleted(id)) {
        ASSERT_TRUE(keys->Delete(id).ok());
      }
    }
    ASSERT_TRUE(engine.Refresh().ok());

    auto universe = engine.UniverseBitmap();
    ASSERT_TRUE(universe.ok());
    std::vector<uint32_t> by_rank;
    (*universe)->ForEachSet([&](uint32_t id) { by_rank.push_back(id); });
    std::vector<uint32_t> by_value = by_rank;
    std::sort(by_rank.begin(), by_rank.end(), [&](uint32_t a, uint32_t b) {
      return engine.KeyRank(a) < engine.KeyRank(b);
    });
    std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
      return engine.KeyAt(a).Compare(engine.KeyAt(b)) < 0;
    });
    ASSERT_EQ(by_rank, by_value);
  }
  const DeltaEngine::Stats& stats = engine.delta_engine().stats();
  EXPECT_GT(stats.keys_added, 0u);
  EXPECT_GT(stats.keys_recycled, 0u);
  EXPECT_GT(stats.keys_tombstoned, 0u);
  EXPECT_GT(stats.full_rebuilds, 0u);
  EXPECT_GT(stats.incremental_refreshes, 0u);
}

TEST(DeltaEngine, PepsTopKAfterRefreshMatchesFreshEngine) {
  MutatingWorkload w(7);
  ProbeEngine engine(&w.db_, w.base_, "p.pid");
  Peps warm(&w.prefs_, &engine);
  auto before = warm.TopK(10, PepsMode::kComplete);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  for (int round = 0; round < 3; ++round) w.Mutate();
  ASSERT_TRUE(engine.Refresh().ok());

  ProbeEngine fresh_engine(&w.db_, w.base_, "p.pid");
  Peps refreshed(&w.prefs_, &engine);
  Peps fresh(&w.prefs_, &fresh_engine);
  auto got = refreshed.TopK(10, PepsMode::kComplete);
  auto want = fresh.TopK(10, PepsMode::kComplete);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(*got, *want);
}

}  // namespace
}  // namespace core
}  // namespace hypre
