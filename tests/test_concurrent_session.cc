// Tests for concurrent multi-tenant serving through one api::Session.
//
// The contract under test (see the thread-model section of api/session.h):
// any number of threads may call Enumerate() on ONE session and ONE cached
// engine simultaneously and get results byte-identical to running the same
// requests serially; first-touch races build exactly one engine; a
// Refresh() racing in-flight enumerations returns promptly and DEFERS its
// journal suffix until the pinned readers drain (epoch-pin
// discipline); per-request ProbeStats are exact (collector-based, not
// engine-snapshot subtraction); and the AdmissionScheduler admits strictly
// FIFO under its concurrency and probe-budget caps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hypre/api/scheduler.h"
#include "hypre/api/session.h"
#include "test_fixtures.h"

namespace hypre {
namespace api {
namespace {

using core::testing_fixtures::BuildMiniDblp;
using core::testing_fixtures::MiniBaseQuery;
using core::testing_fixtures::MiniPreferences;

/// Serializes everything deterministic about a result into one comparable
/// string, so "concurrent run == serial run" is a single byte comparison.
std::string Digest(const EnumerationResult& result) {
  std::string out;
  for (const auto& rec : result.records) {
    out += rec.predicate_sql;
    out += '|';
    out += std::to_string(rec.num_predicates);
    out += '|';
    out += std::to_string(rec.num_tuples);
    out += '|';
    out += std::to_string(rec.intensity);
    out += '\n';
  }
  for (const auto& tuple : result.top_k) {
    out += tuple.key.ToString();
    out += '|';
    out += std::to_string(tuple.intensity);
    out += '\n';
  }
  out += "truncated=";
  out += result.truncated ? '1' : '0';
  return out;
}

EnumerationRequest MakeRequest(const std::string& algorithm,
                               const std::vector<core::PreferenceAtom>& prefs) {
  EnumerationRequest request;
  request.algorithm = algorithm;
  request.base_query = MiniBaseQuery();
  request.key_column = "dblp.pid";
  request.preferences = prefs;
  return request;
}

/// The request mix every differential test drives: combination enumerators
/// and rankers.
std::vector<EnumerationRequest> RequestMix(
    const std::vector<core::PreferenceAtom>& prefs) {
  std::vector<EnumerationRequest> requests;
  requests.push_back(MakeRequest("exhaustive", prefs));
  requests.push_back(MakeRequest("combine-two", prefs));
  requests.push_back(MakeRequest("partially-combine-all", prefs));
  EnumerationRequest peps = MakeRequest("peps", prefs);
  peps.k = SIZE_MAX;
  requests.push_back(std::move(peps));
  requests.push_back(MakeRequest("ta", prefs));
  return requests;
}

/// Polls until `predicate` holds (the scheduler has no "is waiting" hook, so
/// tests observe queue depth with a bounded spin).
template <typename Pred>
bool WaitFor(Pred predicate, int timeout_ms = 5000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- The differential: N threads on one engine == serial ------------------

TEST(ConcurrentSession, ManyThreadsMatchSerialByteForByte) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto prefs = MiniPreferences();
  std::vector<EnumerationRequest> requests = RequestMix(prefs);

  // Serial baselines from an INDEPENDENT session (fresh engine), so the
  // concurrent session cannot accidentally agree with itself.
  std::vector<std::string> baseline;
  {
    Session serial(&db);
    for (const auto& request : requests) {
      auto result = serial.Enumerate(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      baseline.push_back(Digest(*result));
    }
  }

  Session session(&db);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 6;
  std::atomic<size_t> mismatches{0};
  std::mutex report_mu;
  std::string first_error;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        // Stagger which request each thread starts with so every pair of
        // request shapes overlaps at some point.
        size_t i = (t + round) % requests.size();
        auto result = session.Enumerate(requests[i]);
        if (!result.ok()) {
          mismatches.fetch_add(1);
          std::lock_guard<std::mutex> lock(report_mu);
          if (first_error.empty()) first_error = result.status().ToString();
          continue;
        }
        if (Digest(*result) != baseline[i]) {
          mismatches.fetch_add(1);
          std::lock_guard<std::mutex> lock(report_mu);
          if (first_error.empty()) {
            first_error = "digest mismatch for request " + std::to_string(i) +
                          " (" + requests[i].algorithm + ")";
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u) << first_error;
  // All five request shapes share one base query: one engine, built once.
  EXPECT_EQ(session.num_cached_engines(), 1u);
}

TEST(ConcurrentSession, AdmissionCapsPreserveResults) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto prefs = MiniPreferences();
  EnumerationRequest request = MakeRequest("exhaustive", prefs);
  request.probe_budget = 10;

  std::string baseline;
  {
    Session serial(&db);
    auto result = serial.Enumerate(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    baseline = Digest(*result);
  }

  Session session(&db);
  AdmissionScheduler::Options caps;
  caps.max_concurrent = 2;
  caps.max_inflight_probe_budget = 15;  // two budget-10 requests can't overlap
  session.scheduler().set_options(caps);

  // Hold a budget-10 reservation so the client threads' budget-10 requests
  // cannot fit under the cap until we let go: at least one of them is
  // forced to queue, deterministically (on a single core the clients might
  // otherwise serialize naturally and never wait).
  auto plug = session.scheduler().TryAdmit(10, std::nullopt);
  ASSERT_TRUE(plug.ok()) << plug.status().ToString();

  constexpr size_t kThreads = 8;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        auto result = session.Enumerate(request);
        if (!result.ok() || Digest(*result) != baseline) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  ASSERT_TRUE(WaitFor(
      [&] { return session.scheduler().stats().queue_depth > 0; }));
  plug->Release();

  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  AdmissionScheduler::Stats stats = session.scheduler().stats();
  EXPECT_EQ(stats.admitted, kThreads * 4 + 1);  // +1 for the plug ticket
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.inflight_budget, 0u);
  // Every client request that arrived while the plug was held had to queue.
  EXPECT_GT(stats.waited, 0u);
}

// --- First-touch races ----------------------------------------------------

TEST(ConcurrentSession, FirstTouchBuildsExactlyOneEngine) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto prefs = MiniPreferences();

  std::string baseline;
  {
    Session serial(&db);
    auto result = serial.Enumerate(MakeRequest("exhaustive", prefs));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    baseline = Digest(*result);
  }

  Session session(&db);
  constexpr size_t kThreads = 16;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto result = session.Enumerate(MakeRequest("exhaustive", prefs));
      if (!result.ok() || Digest(*result) != baseline) {
        mismatches.fetch_add(1);
      }
      // The lazy accessor must be safe to race with first-touch requests.
      (void)session.num_cached_engines();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(session.num_cached_engines(), 1u);
}

// --- Epoch pinning: mutate + Refresh while an enumeration is in flight ----

TEST(ConcurrentSession, RefreshDefersWhileReaderPinned) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto prefs = MiniPreferences();

  Session session(&db);
  // Warm baseline (also interns the universe).
  EnumerationRequest request = MakeRequest("exhaustive", prefs);
  std::string baseline;
  {
    auto result = session.Enumerate(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    baseline = Digest(*result);
  }
  auto cached = session.GetEngine(MiniBaseQuery(), "dblp.pid");
  ASSERT_TRUE(cached.ok());
  const core::ProbeEngine& engine = **cached;
  const uint64_t epoch_before = engine.epoch();

  // A checkpoint that parks the enumeration mid-run (on the request
  // thread, with the epoch pin held) until the main thread releases it.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  EnumerationRequest pinned = request;
  pinned.checkpoint = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!started) {
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return true;
  };

  std::string pinned_digest;
  Status pinned_status = Status::OK();
  std::thread reader([&] {
    auto result = session.Enumerate(pinned);
    if (!result.ok()) {
      pinned_status = result.status();
      return;
    }
    pinned_digest = Digest(*result);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }

  // Reader is parked mid-enumeration, pin held. Mutate the base tables and
  // refresh: the call must return promptly (deferring, not blocking on the
  // parked reader) and must NOT advance the epoch under the pin.
  using reldb::Row;
  using reldb::Value;
  ASSERT_TRUE(db.GetTable("dblp")
                  ->Append(Row{Value::Int(9), Value::Str("V1"),
                               Value::Int(2009)})
                  .ok());
  ASSERT_TRUE(
      db.GetTable("dblp_author")->Append(Row{Value::Int(9), Value::Int(1)}).ok());
  auto refreshed = session.Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(engine.epoch(), epoch_before);
  EXPECT_GT(engine.num_deferred_refreshes(), 0u);
  EXPECT_TRUE(engine.has_deferred_refresh());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  reader.join();
  ASSERT_TRUE(pinned_status.ok()) << pinned_status.ToString();
  // The pinned run saw the PRE-mutation snapshot end to end, even though
  // the mutation and the Refresh landed mid-run.
  EXPECT_EQ(pinned_digest, baseline);

  // The next refresh-bearing request applies the deferred suffix: new
  // epoch, and the appended paper (pid 9, V1, aid=1) is visible.
  auto result = session.Enumerate(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->epoch, epoch_before);
  bool saw_new_paper = false;
  for (const auto& rec : result->records) {
    if (rec.num_predicates == 1 && rec.predicate_sql == "dblp_author.aid=1") {
      // aid=1 matched papers {1,2,4,7} before; pid 9 joins them.
      EXPECT_EQ(rec.num_tuples, 5u);
      saw_new_paper = true;
    }
  }
  EXPECT_TRUE(saw_new_paper);
  EXPECT_FALSE(engine.has_deferred_refresh());
}

TEST(ConcurrentSession, PureReadersSkipRefreshAndPinLiveEpoch) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto prefs = MiniPreferences();
  Session session(&db);
  EnumerationRequest request = MakeRequest("exhaustive", prefs);
  auto warm = session.Enumerate(request);
  ASSERT_TRUE(warm.ok());

  auto engine = session.GetEngine(MiniBaseQuery(), "dblp.pid");
  ASSERT_TRUE(engine.ok());
  const uint64_t epoch = (*engine)->epoch();

  // Mutate, but enumerate with refresh=false: a pure reader must not drain
  // the journal — same epoch, pre-mutation results.
  using reldb::Row;
  using reldb::Value;
  ASSERT_TRUE(db.GetTable("dblp")
                  ->Append(Row{Value::Int(9), Value::Str("V2"),
                               Value::Int(2009)})
                  .ok());
  EnumerationRequest stale = request;
  stale.refresh = false;
  auto result = session.Enumerate(stale);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, epoch);
  EXPECT_EQ(Digest(*result), Digest(*warm));
}

// --- Per-request statistics under concurrency -----------------------------

TEST(ConcurrentSession, PerRequestStatsAreExactUnderConcurrency) {
  reldb::Database db;
  BuildMiniDblp(&db);
  auto prefs = MiniPreferences();
  Session session(&db);
  EnumerationRequest request = MakeRequest("exhaustive", prefs);

  // Warm the engine: leaves materialized, so steady-state requests are
  // leaf-query-free and their batch counters are a fixed, known quantity.
  auto warm = session.Enumerate(request);
  ASSERT_TRUE(warm.ok());
  auto steady = session.Enumerate(request);
  ASSERT_TRUE(steady.ok());
  ASSERT_EQ(steady->stats.num_leaf_queries, 0u);
  const core::ProbeStats expected = steady->stats;
  ASSERT_GT(expected.num_cache_hits, 0u);

  // Engine-snapshot subtraction would smear overlapping requests' probes
  // into each other (double counts, even negatives). The collector makes
  // every concurrent request report EXACTLY the serial numbers.
  constexpr size_t kThreads = 8;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        auto result = session.Enumerate(request);
        if (!result.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const core::ProbeStats& stats = result->stats;
        if (stats.num_leaf_queries != 0 ||
            stats.num_cache_hits != expected.num_cache_hits ||
            stats.num_batches != expected.num_batches ||
            stats.num_batched_probes != expected.num_batched_probes ||
            stats.num_shard_passes != expected.num_shard_passes) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- AdmissionScheduler unit tests ----------------------------------------

TEST(AdmissionScheduler, UnlimitedByDefault) {
  AdmissionScheduler scheduler;
  auto a = scheduler.TryAdmit(100, std::nullopt);
  auto b = scheduler.TryAdmit(0, std::nullopt);
  auto c = scheduler.TryAdmit(1000000, std::nullopt);
  AdmissionScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.waited, 0u);
  EXPECT_EQ(stats.inflight, 3u);
  EXPECT_EQ(stats.inflight_budget, 1000100u);
  a->Release();
  b->Release();
  c->Release();
  EXPECT_EQ(scheduler.stats().inflight, 0u);
  EXPECT_EQ(scheduler.stats().inflight_budget, 0u);
}

TEST(AdmissionScheduler, ConcurrencyCapBlocksAndReleases) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 2;
  AdmissionScheduler scheduler(options);
  auto a = scheduler.TryAdmit(0, std::nullopt);
  auto b = scheduler.TryAdmit(0, std::nullopt);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto c = scheduler.TryAdmit(0, std::nullopt);
    admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));
  EXPECT_FALSE(admitted.load());
  a->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  AdmissionScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_GE(stats.waited, 1u);
}

TEST(AdmissionScheduler, BudgetCapBlocksUntilSpendDrains) {
  AdmissionScheduler::Options options;
  options.max_inflight_probe_budget = 10;
  AdmissionScheduler scheduler(options);
  auto a = scheduler.TryAdmit(6, std::nullopt);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    // 6 + 6 > 10: must wait for a.
    auto b = scheduler.TryAdmit(6, std::nullopt);
    admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));
  EXPECT_FALSE(admitted.load());
  // Unbudgeted requests pass the budget cap... but FIFO holds them behind
  // the blocked budget-6 request: strict arrival order, no overtaking.
  std::atomic<bool> zero_admitted{false};
  std::thread zero([&] {
    auto c = scheduler.TryAdmit(0, std::nullopt);
    zero_admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 2; }));
  EXPECT_FALSE(zero_admitted.load());
  a->Release();
  waiter.join();
  zero.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(zero_admitted.load());
}

TEST(AdmissionScheduler, OversizedRequestAdmittedWhenAlone) {
  AdmissionScheduler::Options options;
  options.max_inflight_probe_budget = 10;
  AdmissionScheduler scheduler(options);
  // Cost 50 > cap 10, but nothing is in flight: admit rather than starve.
  auto huge = scheduler.TryAdmit(50, std::nullopt);
  EXPECT_EQ(scheduler.stats().inflight, 1u);
  // While the oversized request runs, everything budgeted queues.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto small = scheduler.TryAdmit(1, std::nullopt);
    admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));
  EXPECT_FALSE(admitted.load());
  huge->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionScheduler, FifoOrderUnderSingleSlot) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  AdmissionScheduler scheduler(options);
  auto gate = scheduler.TryAdmit(0, std::nullopt);

  std::mutex order_mu;
  std::vector<int> admission_order;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      auto ticket = scheduler.TryAdmit(0, std::nullopt);
      std::lock_guard<std::mutex> lock(order_mu);
      admission_order.push_back(i);
    });
    // Each waiter must be ENQUEUED (FIFO position taken) before the next
    // thread starts, or arrival order itself would be racy.
    ASSERT_TRUE(WaitFor([&] {
      return scheduler.stats().queue_depth == static_cast<size_t>(i + 1);
    }));
  }
  gate->Release();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(admission_order, (std::vector<int>{0, 1, 2, 3}));
  AdmissionScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.waited, 4u);
}

TEST(AdmissionScheduler, LooseningCapsWakesWaiters) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  AdmissionScheduler scheduler(options);
  auto gate = scheduler.TryAdmit(0, std::nullopt);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto ticket = scheduler.TryAdmit(0, std::nullopt);
    admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));
  EXPECT_FALSE(admitted.load());
  scheduler.set_options(AdmissionScheduler::Options());  // unlimited
  waiter.join();
  EXPECT_TRUE(admitted.load());
  gate->Release();
}

// --- Bounded admission (TryAdmit: queue depth + wait deadline) -------------

TEST(AdmissionScheduler, TryAdmitAdmitsImmediatelyWhenUnloaded) {
  AdmissionScheduler scheduler;
  auto ticket = scheduler.TryAdmit(5);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(scheduler.stats().inflight, 1u);
  EXPECT_EQ(scheduler.stats().rejected, 0u);
  ticket->Release();
  EXPECT_EQ(scheduler.stats().inflight, 0u);
}

TEST(AdmissionScheduler, QueueDepthBoundShedsWithUnavailable) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  options.max_queue_depth = 1;
  AdmissionScheduler scheduler(options);
  auto gate = scheduler.TryAdmit(0, std::nullopt);

  // One waiter fills the queue to its bound.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto ticket = scheduler.TryAdmit(0);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));

  // The next bounded request would queue BEHIND the bound: shed, typed.
  auto shed = scheduler.TryAdmit(0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("queue full"), std::string::npos);
  EXPECT_EQ(scheduler.stats().rejected, 1u);

  gate->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(AdmissionScheduler, WaitDeadlineShedsAQueuedRequest) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  AdmissionScheduler scheduler(options);
  auto gate = scheduler.TryAdmit(0, std::nullopt);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  auto shed = scheduler.TryAdmit(0, deadline);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  AdmissionScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);  // the abandoned waiter left no residue

  // An already-expired deadline is shed before even taking a ticket.
  auto expired = scheduler.TryAdmit(
      0, std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(scheduler.stats().rejected, 2u);

  // With capacity free, the same deadline admits immediately.
  gate->Release();
  auto ok = scheduler.TryAdmit(
      0, std::chrono::steady_clock::now() + std::chrono::milliseconds(50));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(AdmissionScheduler, AbandonedHeadTicketDoesNotStallTheQueue) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  AdmissionScheduler scheduler(options);
  auto gate = scheduler.TryAdmit(0, std::nullopt);

  // Head waiter with a short deadline; a patient waiter queues behind it.
  std::thread head([&] {
    auto shed = scheduler.TryAdmit(
        0, std::chrono::steady_clock::now() + std::chrono::milliseconds(50));
    EXPECT_FALSE(shed.ok());
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));
  std::atomic<bool> admitted{false};
  std::thread patient([&] {
    auto ticket = scheduler.TryAdmit(0, std::nullopt);
    admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 2; }));

  // Let the head abandon, then free capacity: the patient waiter must be
  // admitted — the abandoned HEAD ticket advanced the cursor itself.
  head.join();
  EXPECT_FALSE(admitted.load());
  gate->Release();
  patient.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(AdmissionScheduler, AbandonedMiddleTicketIsSkippedByTheCursor) {
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  AdmissionScheduler scheduler(options);
  auto gate = scheduler.TryAdmit(0, std::nullopt);

  // Queue: [patient-A, deadline-B, patient-C]. B abandons from the MIDDLE;
  // when capacity frees, A then C must both admit (cursor skips B's slot).
  std::atomic<int> admitted{0};
  std::thread a([&] {
    auto ticket = scheduler.TryAdmit(0, std::nullopt);
    admitted.fetch_add(1);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 1; }));
  std::thread b([&] {
    auto shed = scheduler.TryAdmit(
        0, std::chrono::steady_clock::now() + std::chrono::milliseconds(50));
    EXPECT_FALSE(shed.ok());
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 2; }));
  std::thread c([&] {
    auto ticket = scheduler.TryAdmit(0, std::nullopt);
    admitted.fetch_add(1);
  });
  ASSERT_TRUE(WaitFor([&] { return scheduler.stats().queue_depth == 3; }));

  b.join();  // B times out mid-queue
  EXPECT_EQ(admitted.load(), 0);
  gate->Release();  // admits A; A's release admits C over B's abandoned slot
  a.join();
  c.join();
  EXPECT_EQ(admitted.load(), 2);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(ConcurrentSession, AdmissionTimeoutSurfacesAsUnavailable) {
  reldb::Database db;
  BuildMiniDblp(&db);
  Session session(&db);
  AdmissionScheduler::Options options;
  options.max_concurrent = 1;
  session.scheduler().set_options(options);

  // Hold the only slot with a raw ticket, then send a request with a tiny
  // admission timeout: it must shed with Unavailable, not block.
  auto gate = session.scheduler().TryAdmit(0, std::nullopt);
  EnumerationRequest request = MakeRequest("combine-two", MiniPreferences());
  request.admission_timeout_ms = 30;
  auto result = session.Enumerate(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  gate->Release();

  // With the slot free the same request runs.
  auto ok = session.Enumerate(request);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace api
}  // namespace hypre
