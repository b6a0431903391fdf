// Tests for the unified enumeration API (api::Session + api::kAlgorithms).
//
// The load-bearing guarantee: dispatching an algorithm BY NAME through
// Session::Enumerate produces byte-identical records/tuples to calling the
// algorithm's direct entry point on an equivalent enhancer — for all six
// algorithms, across shard widths. On top of that: probe
// budgets truncate deterministically (a budgeted stream is a prefix of the
// unbudgeted one), streaming sinks see exactly the collected output,
// unknown names fail cleanly, the session's engine cache makes repeat
// requests leaf-query-free, and refresh pins the epoch after mutations.
#include <gtest/gtest.h>

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

  EnumerationRequest MakeRequest(const std::string& algorithm,
                                 const core::ProbeOptions& options =
                                     core::ProbeOptions{}) const {
    EnumerationRequest request;
    request.algorithm = algorithm;
    request.base_query = MiniBaseQuery();
    request.key_column = "dblp.pid";
    request.preferences = prefs_;
    request.probe_options = options;
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
  // The mini DBLP universe is one word: 1 is an exact fit, 3, 7 and the
  // 512-word default are wider than the bitmap.
  for (size_t shard_words : {size_t{512}, size_t{1}, size_t{3}, size_t{7}}) {
    core::ProbeOptions options;
    options.shard_words = shard_words;
    std::string label = "shard_words=" + std::to_string(shard_words);
    // A fresh direct enhancer per configuration; the session keeps
    // reusing ITS cached engine across all configurations, which is
    // exactly the sharing the equality must survive.
    core::QueryEnhancer direct(&db_, MiniBaseQuery(), "dblp.pid");

    ExpectRecordsEqual(
        Enumerate(MakeRequest("exhaustive", options)).records,
        *core::ExhaustiveAndCombinations(prefs_, direct, 20, options),
        "exhaustive " + label);

    for (core::CombineSemantics semantics :
         {core::CombineSemantics::kAnd, core::CombineSemantics::kAndOr}) {
      EnumerationRequest request = MakeRequest("combine-two", options);
      request.semantics = semantics;
      ExpectRecordsEqual(
          Enumerate(request).records,
          *core::CombineTwo(prefs_, direct, semantics, options),
          "combine-two " + label);
    }

    ExpectRecordsEqual(
        Enumerate(MakeRequest("partially-combine-all", options)).records,
        *core::PartiallyCombineAll(prefs_, direct, options),
        "partially-combine-all " + label);

    {
      EnumerationRequest request = MakeRequest("bias-random", options);
      request.seed = 7;
      EnumerationResult result = Enumerate(request);
      auto direct_run =
          core::BiasRandomSelection(prefs_, direct, 7, options);
      ASSERT_TRUE(direct_run.ok());
      ExpectRecordsEqual(result.records, direct_run->records,
                         "bias-random " + label);
      EXPECT_EQ(result.valid_checks, direct_run->valid_checks) << label;
      EXPECT_EQ(result.invalid_checks, direct_run->invalid_checks)
          << label;
    }

    for (core::PepsMode mode :
         {core::PepsMode::kComplete, core::PepsMode::kApproximate}) {
      EnumerationRequest request = MakeRequest("peps", options);
      request.mode = mode;
      core::Peps peps(&prefs_, &direct, options);
      ExpectRecordsEqual(Enumerate(request).records,
                         *peps.GenerateOrder(mode), "peps order " + label);

      request.k = 6;
      core::Peps peps_topk(&prefs_, &direct, options);
      ExpectTuplesEqual(Enumerate(request).top_k,
                        *peps_topk.TopK(6, mode), "peps topk " + label);
    }

    {
      EnumerationRequest request = MakeRequest("ta", options);
      request.k = 3;
      const core::ProbeEngine& engine = direct.probe_engine();
      auto lists = core::BuildGradedLists(engine, prefs_);
      ASSERT_TRUE(lists.ok());
      auto oracle = core::ta_oracle::BuildGradedLists(engine, prefs_);
      ASSERT_TRUE(oracle.ok());
      EnumerationResult top3 = Enumerate(request);
      ExpectTuplesEqual(top3.top_k,
                        *core::ThresholdAlgorithmTopK(engine, *lists, 3),
                        "ta k=3 " + label);
      ExpectTuplesEqual(top3.top_k,
                        *core::ta_oracle::ThresholdAlgorithmTopK(*oracle, 3),
                        "ta k=3 oracle " + label);
      request.k = 0;
      EnumerationResult all = Enumerate(request);
      ExpectTuplesEqual(all.top_k,
                        *core::ThresholdAlgorithmTopK(engine, *lists, 0),
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

TEST_F(SessionApiTest, BudgetedStreamIsAPrefixOfTheUnbudgetedStream) {
  // For the generation-ordered algorithms the budget is charged before
  // probing (a generation prefix, or one bias-random check at a time), so
  // a budgeted run's record-sink stream is a prefix of the unbudgeted
  // run's stream, with the truncation flag set. Budgets are swept from 1
  // up to the full run's spend.
  for (const char* algorithm :
       {"exhaustive", "combine-two", "partially-combine-all", "bias-random"}) {
    std::vector<CombinationRecord> full_stream;
    EnumerationRequest request = MakeRequest(algorithm);
    request.seed = 7;
    request.record_sink = [&](const CombinationRecord& record) {
      full_stream.push_back(record);
    };
    EnumerationResult full = Enumerate(request);
    ASSERT_FALSE(full.truncated) << algorithm;
    ASSERT_FALSE(full_stream.empty()) << algorithm;

    for (size_t budget = 1;; ++budget) {
      std::vector<CombinationRecord> stream;
      request.probe_budget = budget;
      request.record_sink = [&](const CombinationRecord& record) {
        stream.push_back(record);
      };
      EnumerationResult capped = Enumerate(request);
      std::string label =
          std::string(algorithm) + " budget=" + std::to_string(budget);
      ASSERT_LE(stream.size(), full_stream.size()) << label;
      ExpectRecordsEqual(
          stream,
          std::vector<CombinationRecord>(full_stream.begin(),
                                         full_stream.begin() + stream.size()),
          label);
      if (!capped.truncated) {
        ExpectRecordsEqual(stream, full_stream, label + " (complete)");
        break;
      }
      ASSERT_LT(budget, 1000u) << label;
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
  core::QueryEnhancer direct(&db_, MiniBaseQuery(), "dblp.pid");
  auto oracle = core::ta_oracle::BuildGradedLists(direct.probe_engine(),
                                                  prefs_);
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

// --- Streaming sinks -------------------------------------------------------

TEST_F(SessionApiTest, RecordSinkStreamsProbeOrder) {
  std::vector<CombinationRecord> streamed;
  EnumerationRequest request = MakeRequest("partially-combine-all");
  request.record_sink = [&](const CombinationRecord& record) {
    streamed.push_back(record);
  };
  EnumerationResult result = Enumerate(request);
  // Partially-combine-all's result order IS probe order, so the stream
  // matches the collected vector exactly.
  ExpectRecordsEqual(streamed, result.records, "streamed records");
}

TEST_F(SessionApiTest, RecordSinkSeesAllApplicableExhaustiveRecords) {
  std::vector<std::string> streamed;
  EnumerationRequest request = MakeRequest("exhaustive");
  request.record_sink = [&](const CombinationRecord& record) {
    streamed.push_back(record.predicate_sql);
  };
  EnumerationResult result = Enumerate(request);
  // The sink runs in probe order, the vector is intensity-sorted: same
  // multiset.
  ASSERT_EQ(streamed.size(), result.records.size());
  std::vector<std::string> collected;
  for (const auto& record : result.records) {
    collected.push_back(record.predicate_sql);
  }
  std::sort(streamed.begin(), streamed.end());
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(streamed, collected);
}

TEST_F(SessionApiTest, TupleSinkStreamsRankOrder) {
  std::vector<RankedTuple> streamed;
  EnumerationRequest request = MakeRequest("peps");
  request.k = 5;
  request.tuple_sink = [&](const RankedTuple& tuple) {
    streamed.push_back(tuple);
  };
  EnumerationResult result = Enumerate(request);
  ExpectTuplesEqual(streamed, result.top_k, "peps streamed tuples");

  streamed.clear();
  request = MakeRequest("ta");
  request.k = 4;
  request.tuple_sink = [&](const RankedTuple& tuple) {
    streamed.push_back(tuple);
  };
  result = Enumerate(request);
  ExpectTuplesEqual(streamed, result.top_k, "ta streamed tuples");
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
  core::QueryEnhancer fresh(&db_, MiniBaseQuery(), "dblp.pid");
  core::Peps peps(&prefs_, &fresh, core::ProbeOptions{});
  ExpectRecordsEqual(after.records,
                     *peps.GenerateOrder(core::PepsMode::kComplete),
                     "post-mutation peps order");
}

}  // namespace
}  // namespace api
}  // namespace hypre
