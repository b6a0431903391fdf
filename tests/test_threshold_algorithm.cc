// Fagin's TA tests: hand-checked cases, early termination, a parameterized
// random sweep against brute-force aggregation, and a differential sweep
// against the Value-keyed oracle (tests/ta_oracle.h): random atom sets over
// DBLP tenants, k in {0, 1, 10, > #objects}, depth caps, forced ties, the
// Figures 37/38 list layout, and an engine whose recycled ids no longer sort
// in key order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/delta_engine.h"
#include "hypre/intensity.h"
#include "ta_oracle.h"
#include "workload/dblp_generator.h"

namespace hypre {
namespace core {
namespace {

using reldb::Row;
using reldb::Value;

/// An engine over a one-column table of int keys [0, n), appended in
/// DESCENDING order: dense ids are interned in scan order, so a key's id is
/// neither its value nor its rank, and ids must be looked up with Id().
class IntKeys {
 public:
  explicit IntKeys(int64_t n) {
    auto table = db_.CreateTable(
        "obj", reldb::Schema({{"k", reldb::ValueType::kInt64}}));
    EXPECT_TRUE(table.ok());
    if (!table.ok()) return;
    for (int64_t v = n - 1; v >= 0; --v) {
      (*table)->AppendUnchecked(Row{Value::Int(v)});
    }
    reldb::Query base;
    base.from = "obj";
    engine_ = std::make_unique<ProbeEngine>(&db_, base, "obj.k");
    auto size = engine_->UniverseSize();
    EXPECT_TRUE(size.ok());
    id_of_.resize(static_cast<size_t>(n));
    for (uint32_t id = 0; size.ok() && id < *size; ++id) {
      id_of_[static_cast<size_t>(engine_->KeyAt(id).AsInt())] = id;
    }
  }

  uint32_t Id(int64_t key) const { return id_of_[static_cast<size_t>(key)]; }
  const ProbeEngine& engine() const { return *engine_; }

 private:
  reldb::Database db_;
  std::unique_ptr<ProbeEngine> engine_;
  std::vector<uint32_t> id_of_;
};

TEST(GradedListTest, AddAndMergeGrades) {
  IntKeys keys(10);
  GradedList list("venue");
  list.AddGrade(keys.Id(1), 0.5);
  list.AddGrade(keys.Id(2), 0.8);
  // Duplicate key: f_and-merged (0.5, 0.5 -> 0.75).
  list.AddGrade(keys.Id(1), 0.5);
  list.Finalize(keys.engine());
  EXPECT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(*list.Grade(keys.Id(2)), 0.8);
  EXPECT_DOUBLE_EQ(*list.Grade(keys.Id(1)), 0.75);
  EXPECT_FALSE(list.Grade(keys.Id(9)).has_value());
  // Sorted access is descending.
  EXPECT_DOUBLE_EQ(list.at(0).second, 0.8);
  EXPECT_EQ(list.at(0).first, keys.Id(2));
}

TEST(GradedListTest, GrowsPastItsSizeHintAndAnswersOutOfRangeIds) {
  GradedList list("a", 2);
  list.AddGrade(7, 0.4);
  EXPECT_EQ(list.num_ids(), 8u);
  EXPECT_EQ(list.size(), 0u);  // nothing to sorted access before Finalize
  EXPECT_DOUBLE_EQ(*list.Grade(7), 0.4);
  EXPECT_FALSE(list.Grade(1).has_value());
  EXPECT_FALSE(list.Grade(1000).has_value());
  GradedList empty("b");
  EXPECT_FALSE(empty.Grade(0).has_value());
}

TEST(GradedListTest, TiesSortByKeyRankNotById) {
  // Every key has the same grade, so sorted access is pure tie-break. Ids
  // descend as keys ascend (see IntKeys), so an id tie-break would reverse
  // the order.
  IntKeys keys(10);
  ASSERT_GT(keys.Id(0), keys.Id(9));
  GradedList list("a");
  for (int64_t v = 0; v < 10; ++v) list.AddGrade(keys.Id(v), 0.5);
  list.Finalize(keys.engine());
  for (size_t d = 0; d < list.size(); ++d) {
    EXPECT_EQ(keys.engine().KeyAt(list.at(d).first).AsInt(),
              static_cast<int64_t>(d));
  }
  auto top = ThresholdAlgorithmTopK(keys.engine(), {list}, 3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 3u);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ((*top)[i].key.AsInt(), i);
}

TEST(ThresholdAlgorithmTest, HandChecked) {
  // Venue list: p1=0.9 p2=0.5 p3=0.2 ; author list: p2=0.8 p3=0.6 p4=0.4.
  IntKeys keys(5);
  GradedList venue("venue");
  venue.AddGrade(keys.Id(1), 0.9);
  venue.AddGrade(keys.Id(2), 0.5);
  venue.AddGrade(keys.Id(3), 0.2);
  venue.Finalize(keys.engine());
  GradedList author("author");
  author.AddGrade(keys.Id(2), 0.8);
  author.AddGrade(keys.Id(3), 0.6);
  author.AddGrade(keys.Id(4), 0.4);
  author.Finalize(keys.engine());

  auto top = ThresholdAlgorithmTopK(keys.engine(), {venue, author}, 4);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->size(), 4u);
  // Aggregates: p1=0.9, p2=f(0.5,0.8)=0.9, p3=f(0.2,0.6)=0.68, p4=0.4.
  std::map<int64_t, double> expected{
      {1, 0.9}, {2, CombineAnd(0.5, 0.8)}, {3, CombineAnd(0.2, 0.6)},
      {4, 0.4}};
  for (const auto& t : *top) {
    EXPECT_NEAR(t.intensity, expected.at(t.key.AsInt()), 1e-12);
  }
  EXPECT_NEAR((*top)[0].intensity, 0.9, 1e-12);
  EXPECT_NEAR((*top)[3].intensity, 0.4, 1e-12);
}

TEST(ThresholdAlgorithmTest, EarlyTermination) {
  // With a clear leader, TA should stop before exhausting the lists.
  IntKeys keys(100);
  GradedList a("a");
  GradedList b("b");
  for (int i = 0; i < 100; ++i) {
    a.AddGrade(keys.Id(i), i == 0 ? 0.99 : 0.01);
    b.AddGrade(keys.Id(i), i == 0 ? 0.99 : 0.01);
  }
  a.Finalize(keys.engine());
  b.Finalize(keys.engine());
  size_t rounds = 0;
  auto top = ThresholdAlgorithmTopK(keys.engine(), {a, b}, 1, &rounds);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0].key.AsInt(), 0);
  EXPECT_LT(rounds, 100u);
}

TEST(ThresholdAlgorithmTest, KLargerThanObjectCount) {
  IntKeys keys(2);
  GradedList a("a");
  a.AddGrade(keys.Id(1), 0.5);
  a.Finalize(keys.engine());
  auto top = ThresholdAlgorithmTopK(keys.engine(), {a}, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 1u);
}

TEST(ThresholdAlgorithmTest, EmptyListsAndErrors) {
  IntKeys keys(1);
  EXPECT_FALSE(ThresholdAlgorithmTopK(keys.engine(), {}, 3).ok());
  GradedList a("a");
  a.Finalize(keys.engine());
  auto top = ThresholdAlgorithmTopK(keys.engine(), {a}, 3);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
}

// Random sweep: TA's top-k equals brute-force aggregate ranking.
class TaRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaRandomized, MatchesBruteForce) {
  Rng rng(GetParam());
  constexpr int kObjects = 60;
  IntKeys keys(kObjects);
  GradedList venue("venue");
  GradedList author("author");
  std::map<int64_t, double> aggregate;
  for (int64_t i = 0; i < kObjects; ++i) {
    double acc = 0.0;
    if (rng.NextBernoulli(0.7)) {
      double g = rng.NextDouble(0.0, 1.0);
      venue.AddGrade(keys.Id(i), g);
      acc = CombineAnd(acc, g);
    }
    if (rng.NextBernoulli(0.7)) {
      double g = rng.NextDouble(0.0, 1.0);
      author.AddGrade(keys.Id(i), g);
      acc = CombineAnd(acc, g);
    }
    if (venue.Grade(keys.Id(i)) || author.Grade(keys.Id(i))) {
      aggregate[i] = acc;
    }
  }
  venue.Finalize(keys.engine());
  author.Finalize(keys.engine());

  constexpr size_t kK = 10;
  auto top = ThresholdAlgorithmTopK(keys.engine(), {venue, author}, kK);
  ASSERT_TRUE(top.ok());
  ASSERT_LE(top->size(), kK);

  // Brute-force: sort aggregates descending.
  std::vector<double> sorted;
  for (const auto& [key, grade] : aggregate) sorted.push_back(grade);
  std::sort(sorted.rbegin(), sorted.rend());
  size_t n = std::min(kK, sorted.size());
  ASSERT_EQ(top->size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR((*top)[i].intensity, sorted[i], 1e-9) << "rank " << i;
    // And the reported grade matches the object's true aggregate.
    EXPECT_NEAR((*top)[i].intensity, aggregate.at((*top)[i].key.AsInt()),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 10, 20, 40));

// --- Differential: dense-id TA vs the Value-keyed oracle -------------------

/// Asserts the two list sets hold the same (key, grade) sequence for sorted
/// access, list by list.
void ExpectSameLists(const ProbeEngine& engine,
                     const std::vector<GradedList>& lists,
                     const std::vector<ta_oracle::GradedList>& oracle,
                     const std::string& label) {
  ASSERT_EQ(lists.size(), oracle.size()) << label;
  for (size_t l = 0; l < lists.size(); ++l) {
    EXPECT_EQ(lists[l].name(), oracle[l].name()) << label;
    ASSERT_EQ(lists[l].size(), oracle[l].size()) << label << " list " << l;
    for (size_t d = 0; d < lists[l].size(); ++d) {
      auto [id, grade] = lists[l].at(d);
      ASSERT_EQ(engine.KeyAt(id).Compare(oracle[l].at(d).first), 0)
          << label << " list " << l << " depth " << d;
      ASSERT_EQ(grade, oracle[l].at(d).second)
          << label << " list " << l << " depth " << d;
    }
  }
}

/// Number of distinct objects across the oracle lists.
size_t ObjectCount(const std::vector<ta_oracle::GradedList>& oracle) {
  std::vector<Value> keys;
  for (const auto& list : oracle) {
    for (size_t d = 0; d < list.size(); ++d) keys.push_back(list.at(d).first);
  }
  std::sort(keys.begin(), keys.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const Value& a, const Value& b) {
                           return a.Compare(b) == 0;
                         }),
             keys.end());
  return keys.size();
}

/// Runs both TAs over the matrix k in {1, 10, 0, #objects + 3} x depth caps
/// and asserts byte-identical tuples, sorted-access rounds and budget
/// verdicts, then compares the lists in full. The early-halting k = 1 runs
/// first, so TA meets lists whose sorted order is not yet materialized.
void ExpectMatchesOracle(const ProbeEngine& engine,
                         const std::vector<GradedList>& lists,
                         const std::vector<ta_oracle::GradedList>& oracle,
                         const std::string& label) {
  size_t objects = ObjectCount(oracle);
  for (size_t k : {size_t{1}, size_t{10}, size_t{0}, objects + 3}) {
    for (size_t max_depth : {size_t{0}, size_t{1}, size_t{4}, size_t{37}}) {
      std::string where = label + " k=" + std::to_string(k) +
                          " max_depth=" + std::to_string(max_depth);
      size_t rounds = 0;
      size_t oracle_rounds = 0;
      bool capped = false;
      bool oracle_capped = false;
      auto top =
          ThresholdAlgorithmTopK(engine, lists, k, &rounds, max_depth, &capped);
      auto expected = ta_oracle::ThresholdAlgorithmTopK(
          oracle, k, &oracle_rounds, max_depth, &oracle_capped);
      ASSERT_EQ(top.ok(), expected.ok()) << where;
      if (!top.ok()) continue;
      ASSERT_EQ(top->size(), expected->size()) << where;
      for (size_t i = 0; i < top->size(); ++i) {
        ASSERT_EQ((*top)[i].key.Compare((*expected)[i].key), 0)
            << where << " rank " << i;
        ASSERT_EQ((*top)[i].intensity, (*expected)[i].intensity)
            << where << " rank " << i;
      }
      EXPECT_EQ(rounds, oracle_rounds) << where;
      EXPECT_EQ(capped, oracle_capped) << where;
    }
  }
  ExpectSameLists(engine, lists, oracle, label);
}

/// The Figures 37/38 list key: venue atoms in one list, the rest in another.
std::string VenueOrAuthor(const PreferenceAtom& atom) {
  return atom.attribute_key.find("venue") != std::string::npos ? "venue"
                                                               : "author";
}

/// Reorders lists into `order`, adding an empty list for any missing name
/// (the figure bench always runs TA over {venue, author}).
template <typename List>
std::vector<List> InOrder(std::vector<List> built,
                          const std::vector<std::string>& order) {
  std::vector<List> lists;
  for (const std::string& name : order) {
    auto it = std::find_if(built.begin(), built.end(),
                           [&](const List& l) { return l.name() == name; });
    if (it != built.end()) {
      lists.push_back(std::move(*it));
    } else {
      lists.emplace_back(name);
    }
  }
  return lists;
}

/// A small synthetic DBLP tenant and its engine.
struct DblpTenant {
  reldb::Database db;
  std::unique_ptr<ProbeEngine> engine;
  size_t num_papers = 0;

  explicit DblpTenant(size_t papers) : num_papers(papers) {
    workload::DblpConfig config;
    config.num_papers = papers;
    config.num_authors = papers / 5;
    config.max_authors_per_paper = 3;
    config.avg_citations_per_paper = 0.0;
    EXPECT_TRUE(workload::GenerateDblp(config, &db).ok());
    reldb::Query base;
    base.from = "dblp";
    base.joins.push_back({"dblp_author", "dblp.pid", "pid"});
    engine = std::make_unique<ProbeEngine>(&db, base, "dblp.pid");
  }
};

/// Random atoms over the tenant's popular venues and productive authors.
/// Intensities come from a five-value palette half the time, so that many
/// objects tie.
std::vector<PreferenceAtom> RandomAtoms(Rng* rng, size_t num_venues,
                                        size_t num_authors) {
  static const double kPalette[] = {0.3, 0.5, 0.5, 0.7, 0.9};
  bool palette = rng->NextBernoulli(0.5);
  std::vector<PreferenceAtom> atoms;
  auto intensity = [&] {
    return palette ? kPalette[rng->NextBounded(5)] : rng->NextDouble(0.1, 0.95);
  };
  for (size_t i = 0; i < num_venues; ++i) {
    auto atom = MakeAtom("dblp.venue='" +
                             workload::VenueName(rng->NextBounded(12)) + "'",
                         intensity());
    EXPECT_TRUE(atom.ok());
    if (atom.ok()) atoms.push_back(std::move(*atom));
  }
  for (size_t i = 0; i < num_authors; ++i) {
    auto atom = MakeAtom(
        "dblp_author.aid=" + std::to_string(rng->NextBounded(80)),
        intensity());
    EXPECT_TRUE(atom.ok());
    if (atom.ok()) atoms.push_back(std::move(*atom));
  }
  SortByIntensityDesc(&atoms);
  return atoms;
}

/// Builds both list sets from `atoms` and checks the whole matrix, with the
/// default list key and with the figure bench's {venue, author} layout.
void CheckAtoms(const ProbeEngine& engine,
                const std::vector<PreferenceAtom>& atoms,
                const std::string& label) {
  auto lists = BuildGradedLists(engine, atoms);
  auto oracle = ta_oracle::BuildGradedLists(engine, atoms);
  ASSERT_TRUE(lists.ok()) << lists.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExpectMatchesOracle(engine, *lists, *oracle, label + " attribute lists");

  auto fig_lists = BuildGradedLists(engine, atoms, VenueOrAuthor);
  auto fig_oracle = ta_oracle::BuildGradedLists(engine, atoms, VenueOrAuthor);
  ASSERT_TRUE(fig_lists.ok());
  ASSERT_TRUE(fig_oracle.ok());
  ExpectMatchesOracle(engine, InOrder(std::move(*fig_lists), {"venue", "author"}),
                      InOrder(std::move(*fig_oracle), {"venue", "author"}),
                      label + " fig37 lists");
}

class TaDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaDifferential, RandomAtomSetsMatchOracle) {
  static DblpTenant* tenant = new DblpTenant(3000);
  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    std::vector<PreferenceAtom> atoms =
        RandomAtoms(&rng, 1 + rng.NextBounded(6), 1 + rng.NextBounded(8));
    CheckAtoms(*tenant->engine, atoms,
               "seed " + std::to_string(GetParam()) + " round " +
                   std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaDifferential,
                         ::testing::Values(1, 2, 3, 7, 11, 19));

TEST(TaDifferentialTest, Fig37ListsWithOneSideEmpty) {
  DblpTenant tenant(1500);
  Rng rng(5);
  // Venues only: the author list is empty; authors only: the venue list is.
  CheckAtoms(*tenant.engine, RandomAtoms(&rng, 5, 0), "venues only");
  CheckAtoms(*tenant.engine, RandomAtoms(&rng, 0, 6), "authors only");
}

TEST(TaDifferentialTest, ForcedTiesAcrossListsMatchOracle) {
  // Every atom at one intensity: all grades tie within a list, and heap
  // evictions at the k cutoff fall entirely to the seen-last rule.
  DblpTenant tenant(1500);
  std::vector<PreferenceAtom> atoms;
  for (const char* pred : {"dblp.venue='SIGMOD'", "dblp.venue='VLDB'",
                           "dblp_author.aid=0", "dblp_author.aid=1",
                           "dblp_author.aid=2"}) {
    auto atom = MakeAtom(pred, 0.5);
    ASSERT_TRUE(atom.ok());
    atoms.push_back(std::move(*atom));
  }
  CheckAtoms(*tenant.engine, atoms, "all 0.5");
}

TEST(TaDifferentialTest, RecycledIdsAfterRefreshMatchOracle) {
  DblpTenant tenant(2000);
  ProbeEngine& engine = *tenant.engine;
  ASSERT_TRUE(engine.UniverseSize().ok());
  reldb::Table* dblp = tenant.db.GetTable("dblp");
  reldb::Table* dblp_author = tenant.db.GetTable("dblp_author");
  ASSERT_NE(dblp, nullptr);
  ASSERT_NE(dblp_author, nullptr);

  // Delete every third of the first 300 papers (row index == pid), then
  // append as many new papers with large pids in the same venues. The new
  // keys recycle the freed low ids, so their ids no longer follow key order.
  std::vector<Row> reborn;
  for (size_t pid = 0; pid < 300; pid += 3) {
    reborn.push_back(dblp->row(pid));
    ASSERT_TRUE(dblp->Delete(pid).ok());
  }
  ASSERT_TRUE(engine.Refresh().ok());
  int64_t next_pid = static_cast<int64_t>(tenant.num_papers) + 1000;
  for (size_t i = 0; i < reborn.size(); ++i, ++next_pid) {
    Row row = reborn[i];
    row[0] = Value::Int(next_pid);
    ASSERT_TRUE(dblp->Append(row).ok());
    ASSERT_TRUE(dblp_author
                    ->Append(Row{Value::Int(next_pid),
                                 Value::Int(static_cast<int64_t>(i % 3))})
                    .ok());
  }
  ASSERT_TRUE(engine.Refresh().ok());
  ASSERT_GT(engine.delta_engine().stats().keys_recycled, 0u);

  std::vector<PreferenceAtom> atoms;
  for (size_t v = 0; v < 4; ++v) {
    auto atom = MakeAtom("dblp.venue='" + workload::VenueName(v) + "'",
                         v < 2 ? 0.6 : 0.4);
    ASSERT_TRUE(atom.ok());
    atoms.push_back(std::move(*atom));
  }
  for (int aid = 0; aid < 3; ++aid) {
    auto atom = MakeAtom("dblp_author.aid=" + std::to_string(aid), 0.5);
    ASSERT_TRUE(atom.ok());
    atoms.push_back(std::move(*atom));
  }

  // Precondition: some tied pair in sorted access is ordered against its
  // ids, so a build breaking ties by raw id instead of KeyRank would fail.
  auto lists = BuildGradedLists(engine, atoms);
  ASSERT_TRUE(lists.ok());
  bool id_order_differs = false;
  for (const GradedList& list : *lists) {
    for (size_t d = 1; d < list.size(); ++d) {
      auto [prev_id, prev_grade] = list.at(d - 1);
      auto [id, grade] = list.at(d);
      if (grade == prev_grade && prev_id > id) id_order_differs = true;
    }
  }
  ASSERT_TRUE(id_order_differs);

  CheckAtoms(engine, atoms, "after refresh");
  Rng rng(23);
  for (int round = 0; round < 3; ++round) {
    CheckAtoms(engine, RandomAtoms(&rng, 3, 4),
               "after refresh round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace core
}  // namespace hypre
