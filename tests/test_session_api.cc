// Tests for the unified enumeration API (api::Session + api::kAlgorithms).
//
// The load-bearing guarantee: dispatching an algorithm BY NAME through
// Session::Enumerate produces byte-identical records/tuples to calling the
// algorithm's direct entry point on an equivalent engine — for all six
// algorithms, on a cold and on a warm session engine. On top of that: probe
// budgets truncate deterministically (a budgeted run's records are a prefix
// or subset of the unbudgeted one's), the run checkpoint stops a run like a
// dry budget and otherwise changes nothing, unknown names fail cleanly, the session's engine cache makes repeat
// requests leaf-query-free, and refresh pins the epoch after mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hypre/algorithms/bias_random.h"
#include "hypre/algorithms/combine_two.h"
#include "hypre/algorithms/exhaustive.h"
#include "hypre/algorithms/partially_combine_all.h"
#include "hypre/algorithms/peps.h"
#include "hypre/algorithms/threshold_algorithm.h"
#include "hypre/api/session.h"
#include "hypre/server/codec.h"
#include "ta_oracle.h"
#include "test_fixtures.h"

namespace hypre {
namespace api {
namespace {

using core::CombinationRecord;
using core::RankedTuple;
using core::testing_fixtures::BuildMiniDblp;
using core::testing_fixtures::MiniBaseQuery;
using core::testing_fixtures::MiniPreferences;

void ExpectRecordsEqual(const std::vector<CombinationRecord>& actual,
                        const std::vector<CombinationRecord>& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].predicate_sql, expected[i].predicate_sql)
        << label << " record " << i;
    EXPECT_EQ(actual[i].num_predicates, expected[i].num_predicates)
        << label << " record " << i;
    EXPECT_EQ(actual[i].num_tuples, expected[i].num_tuples)
        << label << " record " << i;
    EXPECT_EQ(actual[i].intensity, expected[i].intensity)
        << label << " record " << i;
    EXPECT_EQ(actual[i].combination.SortedMembers(),
              expected[i].combination.SortedMembers())
        << label << " record " << i;
  }
}

void ExpectTuplesEqual(const std::vector<RankedTuple>& actual,
                       const std::vector<RankedTuple>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].key.Compare(expected[i].key), 0)
        << label << " tuple " << i;
    EXPECT_EQ(actual[i].intensity, expected[i].intensity)
        << label << " tuple " << i;
  }
}

class SessionApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildMiniDblp(&db_);
    session_ = std::make_unique<Session>(&db_);
    prefs_ = MiniPreferences();
  }

  EnumerationRequest MakeRequest(const std::string& algorithm) const {
    EnumerationRequest request;
    request.algorithm = algorithm;
    request.base_query = MiniBaseQuery();
    request.key_column = "dblp.pid";
    request.preferences = prefs_;
    return request;
  }

  EnumerationResult Enumerate(const EnumerationRequest& request) {
    auto result = session_->Enumerate(request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).TakeValue();
  }

  reldb::Database db_;
  std::unique_ptr<Session> session_;
  std::vector<core::PreferenceAtom> prefs_;
};

// --- The differential: Session output == direct entry-point output --------

TEST_F(SessionApiTest, ByteIdenticalToDirectCallsAllSixAlgorithms) {
  // Round 0 runs on a cold session engine, round 1 on the warm one.
  for (int round = 0; round < 2; ++round) {
    std::string label = "round=" + std::to_string(round);
    // A fresh direct engine per round; the session keeps reusing ITS
    // cached engine across rounds, which is exactly the sharing the
    // equality must survive.
    core::ProbeEngine direct(&db_, MiniBaseQuery(), "dblp.pid");

    ExpectRecordsEqual(
        Enumerate(MakeRequest("exhaustive")).records,
        *core::ExhaustiveAndCombinations(prefs_, direct, 20),
        "exhaustive " + label);

    for (core::CombineSemantics semantics :
         {core::CombineSemantics::kAnd, core::CombineSemantics::kAndOr}) {
      EnumerationRequest request = MakeRequest("combine-two");
      request.semantics = semantics;
      ExpectRecordsEqual(
          Enumerate(request).records,
          *core::CombineTwo(prefs_, direct, semantics),
          "combine-two " + label);
    }

    ExpectRecordsEqual(
        Enumerate(MakeRequest("partially-combine-all")).records,
        *core::PartiallyCombineAll(prefs_, direct),
        "partially-combine-all " + label);

    {
      EnumerationRequest request = MakeRequest("bias-random");
      request.seed = 7;
      EnumerationResult result = Enumerate(request);
      auto direct_run = core::BiasRandomSelection(prefs_, direct, 7);
      ASSERT_TRUE(direct_run.ok());
      ExpectRecordsEqual(result.records, direct_run->records,
                         "bias-random " + label);
      EXPECT_EQ(result.valid_checks, direct_run->valid_checks) << label;
      EXPECT_EQ(result.invalid_checks, direct_run->invalid_checks)
          << label;
    }

    for (core::PepsMode mode :
         {core::PepsMode::kComplete, core::PepsMode::kApproximate}) {
      EnumerationRequest request = MakeRequest("peps");
      request.mode = mode;
      core::Peps peps(&prefs_, &direct);
      ExpectRecordsEqual(Enumerate(request).records,
                         *peps.GenerateOrder(mode), "peps order " + label);

      request.k = 6;
      core::Peps peps_topk(&prefs_, &direct);
      ExpectTuplesEqual(Enumerate(request).top_k,
                        *peps_topk.TopK(6, mode), "peps topk " + label);
    }

    {
      EnumerationRequest request = MakeRequest("ta");
      request.k = 3;
      auto lists = core::BuildGradedLists(direct, prefs_);
      ASSERT_TRUE(lists.ok());
      auto oracle = core::ta_oracle::BuildGradedLists(direct, prefs_);
      ASSERT_TRUE(oracle.ok());
      EnumerationResult top3 = Enumerate(request);
      ExpectTuplesEqual(top3.top_k,
                        *core::ThresholdAlgorithmTopK(direct, *lists, 3),
                        "ta k=3 " + label);
      ExpectTuplesEqual(top3.top_k,
                        *core::ta_oracle::ThresholdAlgorithmTopK(*oracle, 3),
                        "ta k=3 oracle " + label);
      request.k = 0;
      EnumerationResult all = Enumerate(request);
      ExpectTuplesEqual(all.top_k,
                        *core::ThresholdAlgorithmTopK(direct, *lists, 0),
                        "ta k=0 " + label);
      ExpectTuplesEqual(all.top_k,
                        *core::ta_oracle::ThresholdAlgorithmTopK(*oracle, 0),
                        "ta k=0 oracle " + label);
    }
  }
}

// --- Probe budgets ---------------------------------------------------------

TEST_F(SessionApiTest, BudgetTruncatesCombineTwoDeterministically) {
  EnumerationRequest request = MakeRequest("combine-two");
  EnumerationResult full = Enumerate(request);
  ASSERT_EQ(full.records.size(), 10u);  // C(5,2)
  EXPECT_FALSE(full.truncated);

  request.probe_budget = 4;
  EnumerationResult capped = Enumerate(request);
  EXPECT_TRUE(capped.truncated);
  ASSERT_EQ(capped.records.size(), 4u);
  // The budgeted run's records are the generation-order prefix of the full
  // run.
  ExpectRecordsEqual(
      capped.records,
      std::vector<CombinationRecord>(full.records.begin(),
                                     full.records.begin() + 4),
      "combine-two budget prefix");

  // A budget exactly covering the run does not truncate.
  request.probe_budget = 10;
  EnumerationResult exact = Enumerate(request);
  EXPECT_FALSE(exact.truncated);
  ExpectRecordsEqual(exact.records, full.records, "combine-two exact budget");
}

TEST_F(SessionApiTest, BudgetedRecordsArePrefixesOfTheUnbudgetedRun) {
  // For the generation-ordered algorithms the budget is charged before
  // probing (a generation prefix, or one bias-random check at a time).
  // Combine-two, partially-combine-all and bias-random return their
  // records in probe order, so a budgeted run's records are a prefix of
  // the unbudgeted run's, with the truncation flag set. Budgets are swept
  // from 1 up to the full run's spend.
  for (const char* algorithm :
       {"combine-two", "partially-combine-all", "bias-random"}) {
    EnumerationRequest request = MakeRequest(algorithm);
    request.seed = 7;
    EnumerationResult full = Enumerate(request);
    ASSERT_FALSE(full.truncated) << algorithm;
    ASSERT_FALSE(full.records.empty()) << algorithm;

    for (size_t budget = 1;; ++budget) {
      request.probe_budget = budget;
      EnumerationResult capped = Enumerate(request);
      std::string label =
          std::string(algorithm) + " budget=" + std::to_string(budget);
      ASSERT_LE(capped.records.size(), full.records.size()) << label;
      ExpectRecordsEqual(
          capped.records,
          std::vector<CombinationRecord>(
              full.records.begin(),
              full.records.begin() +
                  static_cast<std::ptrdiff_t>(capped.records.size())),
          label);
      if (!capped.truncated) {
        ExpectRecordsEqual(capped.records, full.records, label + " (complete)");
        break;
      }
      ASSERT_LT(budget, 1000u) << label;
    }
  }

  // Exhaustive stable-sorts its records by intensity, so a larger budget
  // may slot new records anywhere; what holds is that each budget's
  // records are a subset of the next budget's, and that the first
  // untruncated run is the unbudgeted one.
  {
    EnumerationRequest request = MakeRequest("exhaustive");
    EnumerationResult full = Enumerate(request);
    ASSERT_FALSE(full.truncated);
    ASSERT_FALSE(full.records.empty());
    std::vector<CombinationRecord> previous;
    for (size_t budget = 1;; ++budget) {
      request.probe_budget = budget;
      EnumerationResult capped = Enumerate(request);
      std::string label = "exhaustive budget=" + std::to_string(budget);
      for (const CombinationRecord& record : previous) {
        auto match = std::find_if(
            capped.records.begin(), capped.records.end(),
            [&](const CombinationRecord& other) {
              return other.predicate_sql == record.predicate_sql;
            });
        ASSERT_NE(match, capped.records.end())
            << label << " lost " << record.predicate_sql;
        ExpectRecordsEqual({*match}, {record}, label);
      }
      if (!capped.truncated) {
        ExpectRecordsEqual(capped.records, full.records, label + " (complete)");
        break;
      }
      ASSERT_LT(budget, 1000u) << label;
      previous = std::move(capped.records);
    }
  }

  // PEPS re-ranks its truncated pair table, so its budgeted output is not a
  // prefix; a small budget still truncates.
  EnumerationRequest peps = MakeRequest("peps");
  peps.probe_budget = 5;
  EXPECT_TRUE(Enumerate(peps).truncated);
}

TEST_F(SessionApiTest, BudgetCountsBiasRandomChecks) {
  EnumerationRequest request = MakeRequest("bias-random");
  request.seed = 3;
  EnumerationResult full = Enumerate(request);
  size_t total_checks = full.valid_checks + full.invalid_checks;
  ASSERT_GT(total_checks, 4u);

  request.probe_budget = 4;
  EnumerationResult capped = Enumerate(request);
  EXPECT_TRUE(capped.truncated);
  // Every admitted probe was consumed as a check; none leaked past the cap.
  EXPECT_EQ(capped.valid_checks + capped.invalid_checks, 4u);
}

TEST_F(SessionApiTest, BudgetCapsTaSortedAccessDepth) {
  EnumerationRequest request = MakeRequest("ta");
  request.k = 0;
  EnumerationResult full = Enumerate(request);
  EXPECT_FALSE(full.truncated);
  ASSERT_GT(full.top_k.size(), 2u);

  // 5 atoms build the lists; one sorted-access round remains.
  request.probe_budget = prefs_.size() + 1;
  EnumerationResult capped = Enumerate(request);
  EXPECT_TRUE(capped.truncated);
  EXPECT_LT(capped.top_k.size(), full.top_k.size());
  // The capped ranking is exactly the oracle's after one round.
  core::ProbeEngine direct(&db_, MiniBaseQuery(), "dblp.pid");
  auto oracle = core::ta_oracle::BuildGradedLists(direct, prefs_);
  ASSERT_TRUE(oracle.ok());
  size_t oracle_rounds = 0;
  bool oracle_capped = false;
  auto expected = core::ta_oracle::ThresholdAlgorithmTopK(
      *oracle, 0, &oracle_rounds, 1, &oracle_capped);
  ASSERT_TRUE(expected.ok());
  ExpectTuplesEqual(capped.top_k, *expected, "ta capped vs oracle");
  EXPECT_EQ(oracle_rounds, 1u);
  EXPECT_TRUE(oracle_capped);

  // Budget smaller than the atom list: even the graded lists are partial.
  request.probe_budget = 2;
  EnumerationResult tiny = Enumerate(request);
  EXPECT_TRUE(tiny.truncated);
}

// --- The run checkpoint ----------------------------------------------------

TEST_F(SessionApiTest, CheckpointThatStopsAtOnceTruncatesEveryAlgorithm) {
  for (const std::string& name : session_->Algorithms()) {
    for (size_t k : {size_t{0}, size_t{4}}) {
      if (k > 0 && name != "peps" && name != "ta") continue;
      std::string label = name + " k=" + std::to_string(k);
      EnumerationRequest request = MakeRequest(name);
      request.k = k;
      request.seed = 7;
      size_t calls = 0;
      request.checkpoint = [&calls] {
        ++calls;
        return false;
      };
      EnumerationResult result = Enumerate(request);
      EXPECT_TRUE(result.truncated) << label;
      EXPECT_GE(calls, 1u) << label;
      EXPECT_TRUE(result.records.empty()) << label;
      EXPECT_EQ(result.valid_checks + result.invalid_checks, 0u) << label;
      if (name == "peps" && k > 0) {
        // Like a dry budget: no pair entered the table, so TopK ranks by
        // the single preferences alone.
        ASSERT_FALSE(result.top_k.empty()) << label;
        for (const RankedTuple& tuple : result.top_k) {
          EXPECT_TRUE(std::any_of(prefs_.begin(), prefs_.end(),
                                  [&](const core::PreferenceAtom& atom) {
                                    return atom.intensity == tuple.intensity;
                                  }))
              << label;
        }
      } else {
        EXPECT_TRUE(result.top_k.empty()) << label;
      }
      // The stopped run released everything it held.
      auto engine = session_->GetEngine(MiniBaseQuery(), "dblp.pid");
      ASSERT_TRUE(engine.ok());
      EXPECT_EQ((*engine)->num_epoch_pins(), 0u) << label;
      EXPECT_EQ(session_->scheduler().stats().inflight, 0u) << label;
    }
  }
}

TEST_F(SessionApiTest, CheckpointThatGoesOnChangesNoByte) {
  // Warm the engine first so both runs report the same (warm) stats.
  Enumerate(MakeRequest("exhaustive"));
  for (const std::string& name : session_->Algorithms()) {
    for (size_t k : {size_t{0}, size_t{4}}) {
      if (k > 0 && name != "peps" && name != "ta") continue;
      for (size_t budget : {size_t{0}, size_t{6}}) {
        std::string label = name + " k=" + std::to_string(k) +
                            " budget=" + std::to_string(budget);
        EnumerationRequest request = MakeRequest(name);
        request.k = k;
        request.seed = 7;
        request.probe_budget = budget;
        const std::string plain =
            server::EncodeEnumerationResult(name, Enumerate(request));
        size_t calls = 0;
        request.checkpoint = [&calls] {
          ++calls;
          return true;
        };
        EXPECT_EQ(server::EncodeEnumerationResult(name, Enumerate(request)),
                  plain)
            << label;
        EXPECT_GE(calls, 1u) << label;
      }
    }
  }
}

TEST_F(SessionApiTest, CheckpointIsNotAskedAboutFinishedTaRounds) {
  // TA charges its sorted-access rounds after they ran; a checkpoint that
  // says stop only after its first answer must leave the ranking complete.
  for (size_t budget : {size_t{0}, size_t{1000}}) {
    EnumerationRequest request = MakeRequest("ta");
    request.k = 3;
    request.probe_budget = budget;
    EnumerationResult plain = Enumerate(request);
    ASSERT_FALSE(plain.truncated);
    size_t calls = 0;
    request.checkpoint = [&calls] { return calls++ == 0; };
    EnumerationResult result = Enumerate(request);
    EXPECT_FALSE(result.truncated) << "budget=" << budget;
    ExpectTuplesEqual(result.top_k, plain.top_k, "ta late stop");
  }
}

// --- Errors and the algorithm table ---------------------------------------

TEST_F(SessionApiTest, UnknownAlgorithmNameFails) {
  EnumerationRequest request = MakeRequest("combine-three");
  auto result = session_->Enumerate(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The error names what IS registered.
  EXPECT_NE(result.status().message().find("peps"), std::string::npos)
      << result.status().ToString();
}

TEST_F(SessionApiTest, TableListsAllSixAlgorithms) {
  std::vector<std::string> names = session_->Algorithms();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "bias-random", "combine-two", "exhaustive",
                       "partially-combine-all", "peps", "ta"}));
  for (const Algorithm& algorithm : kAlgorithms) {
    EXPECT_FALSE(algorithm.description.empty()) << algorithm.name;
    EXPECT_NE(algorithm.run, nullptr) << algorithm.name;
    auto found = FindAlgorithm(algorithm.name);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(*found, &algorithm);
  }
}

TEST_F(SessionApiTest, EmptyPreferencesYieldEmptyResults) {
  for (const std::string& name : session_->Algorithms()) {
    for (size_t k : {size_t{0}, size_t{3}}) {
      EnumerationRequest request = MakeRequest(name);
      request.preferences = {};
      request.k = k;
      auto result = session_->Enumerate(request);
      ASSERT_TRUE(result.ok())
          << name << " k=" << k << ": " << result.status().ToString();
      EXPECT_TRUE(result->records.empty()) << name << " k=" << k;
      EXPECT_TRUE(result->top_k.empty()) << name << " k=" << k;
      EXPECT_FALSE(result->truncated) << name << " k=" << k;
    }
  }
}

TEST_F(SessionApiTest, RejectsEmptyQuerySpec) {
  EnumerationRequest request = MakeRequest("peps");
  request.base_query = reldb::Query{};
  EXPECT_FALSE(session_->Enumerate(request).ok());
  request = MakeRequest("peps");
  request.key_column.clear();
  EXPECT_FALSE(session_->Enumerate(request).ok());
}

// --- Session caching, statistics, and epochs -------------------------------

TEST_F(SessionApiTest, CachedEngineMakesRepeatRequestsLeafQueryFree) {
  EnumerationRequest request = MakeRequest("peps");
  EnumerationResult first = Enumerate(request);
  EXPECT_GT(first.stats.num_leaf_queries, 0u);
  EXPECT_EQ(session_->num_cached_engines(), 1u);

  // Same query spec, different algorithm: the leaf cache is shared.
  EnumerationResult second = Enumerate(MakeRequest("combine-two"));
  EXPECT_EQ(second.stats.num_leaf_queries, 0u);
  EXPECT_GT(second.stats.num_cache_hits, 0u);
  EXPECT_EQ(session_->num_cached_engines(), 1u);

  // A different key column is a different engine.
  EnumerationRequest other = MakeRequest("combine-two");
  other.key_column = "dblp.venue";
  Enumerate(other);
  EXPECT_EQ(session_->num_cached_engines(), 2u);
}

TEST_F(SessionApiTest, ProbeStatsReportBatchShape) {
  EnumerationResult batched = Enumerate(MakeRequest("combine-two"));
  EXPECT_GT(batched.stats.num_batches, 0u);
  EXPECT_EQ(batched.stats.num_batched_probes, 10u);  // C(5,2)
  EXPECT_GE(batched.stats.num_shard_passes, batched.stats.num_batches);
  EXPECT_GE(batched.stats.num_cache_hits, batched.stats.num_batched_probes);
}

TEST_F(SessionApiTest, RefreshPinsEpochAfterMutations) {
  EnumerationRequest request = MakeRequest("peps");
  EnumerationResult before = Enumerate(request);
  EXPECT_EQ(before.epoch, 0u);

  // A new V1 paper by author 1 and a deleted paper change the answers.
  reldb::Table* dblp = db_.GetTable("dblp");
  reldb::Table* da = db_.GetTable("dblp_author");
  ASSERT_TRUE(dblp->Append({reldb::Value::Int(9), reldb::Value::Str("V1"),
                            reldb::Value::Int(2009)})
                  .ok());
  ASSERT_TRUE(
      da->Append({reldb::Value::Int(9), reldb::Value::Int(1)}).ok());
  ASSERT_TRUE(dblp->Delete(4).ok());  // pid 5 (V3, author 3) disappears

  EnumerationResult after = Enumerate(request);
  EXPECT_GT(after.epoch, before.epoch);

  // The refreshed session answers match a from-scratch engine on the
  // mutated database.
  core::ProbeEngine fresh(&db_, MiniBaseQuery(), "dblp.pid");
  core::Peps peps(&prefs_, &fresh);
  ExpectRecordsEqual(after.records,
                     *peps.GenerateOrder(core::PepsMode::kComplete),
                     "post-mutation peps order");
}

}  // namespace
}  // namespace api
}  // namespace hypre
