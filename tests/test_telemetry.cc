// Telemetry tests: sharded counter/histogram correctness under concurrent
// writers, trace span nesting and truncation, export formats (JSON +
// Prometheus text golden), and the end-to-end guarantees the subsystem
// makes to the engine:
//  * tracing a request changes NOTHING about its results or ProbeStats;
//  * one mutate + refresh + enumerate round-trip produces spans from at
//    least four layers (api, prober, delta, storage);
//  * the background auto-checkpoint never blocks the request path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hypre/api/session.h"
#include "hypre/storage/env.h"
#include "hypre/storage/store.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "test_fixtures.h"

namespace hypre {
namespace telemetry {
namespace {

using core::testing_fixtures::BuildMiniDblp;
using core::testing_fixtures::MiniBaseQuery;
using core::testing_fixtures::MiniPreferences;

std::string MakeTempDir(const std::string& tag) {
  std::string tpl = ::testing::TempDir() + "hypre_" + tag + "_XXXXXX";
  std::vector<char> buf(tpl.begin(), tpl.end());
  buf.push_back('\0');
  char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr) << tpl;
  return got == nullptr ? std::string() : std::string(got);
}

// --- Counter / Histogram shard folding --------------------------------------

TEST(TelemetryCounterTest, FoldsConcurrentWriters) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Add(42);
  EXPECT_EQ(counter.Value(), kThreads * kPerThread + 42);
}

TEST(TelemetryHistogramTest, FoldsConcurrentWriters) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(uint64_t(t) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // sum = kPerThread * (1 + 2 + ... + kThreads)
  EXPECT_EQ(snap.sum, kPerThread * (kThreads * (kThreads + 1) / 2));
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < 65; ++b) bucket_total += snap.buckets[b];
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(TelemetryHistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::UpperBound(0), 0u);
  EXPECT_EQ(Histogram::UpperBound(2), 3u);
  EXPECT_EQ(Histogram::UpperBound(10), 1023u);
  EXPECT_EQ(Histogram::UpperBound(64), UINT64_MAX);
}

TEST(TelemetryHistogramTest, PercentilesAreMonotoneAndBucketAccurate) {
  Histogram histogram;
  HistogramSnapshot empty = histogram.Snapshot();
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);

  // 1000 identical samples: every percentile lands inside value 100's
  // bucket, [64, 128).
  for (int i = 0; i < 1000; ++i) histogram.Record(100);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Mean(), 100.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    double p = snap.Percentile(q);
    EXPECT_GE(p, 64.0) << q;
    EXPECT_LT(p, 128.0) << q;
  }

  // A bimodal distribution keeps the quantiles ordered and in the right
  // modes: 90% small (8), 10% large (100000).
  Histogram bimodal;
  for (int i = 0; i < 900; ++i) bimodal.Record(8);
  for (int i = 0; i < 100; ++i) bimodal.Record(100000);
  HistogramSnapshot b = bimodal.Snapshot();
  double p50 = b.Percentile(0.50);
  double p95 = b.Percentile(0.95);
  double p99 = b.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LT(p50, 16.0);       // in 8's bucket
  EXPECT_GE(p95, 65536.0);    // in 100000's bucket [2^16, 2^17)
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateIsPointerStable) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("c", "api", "help");
  Counter* b = registry.GetCounter("c", "ignored", "ignored");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.num_metrics(), 1u);
  a->Add(7);
  EXPECT_EQ(b->Value(), 7u);
}

TEST(MetricsRegistryTest, KindCollisionReturnsDetachedDummy) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("name", "api", "help");
  counter->Add(5);
  // Re-registering as a gauge must not corrupt the counter; the gauge is a
  // detached sink.
  Gauge* gauge = registry.GetGauge("name", "api", "help");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(999);
  EXPECT_EQ(counter->Value(), 5u);
  EXPECT_EQ(registry.num_metrics(), 1u);
  // The export still shows the original kind.
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"name\":5}"), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, JsonExportIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b_counter", "api", "")->Add(2);
  registry.GetCounter("a_counter", "api", "")->Add(1);
  registry.GetGauge("g", "parallel", "")->Set(-3);
  registry.GetHistogram("h", "storage", "")->Record(100);
  std::string json = registry.ToJson();
  EXPECT_EQ(json.find("\"a_counter\":1,\"b_counter\":2") !=
                std::string::npos,
            true)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":-3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\":{\"count\":1,\"sum\":100"), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, PrometheusExportGolden) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "api", "Requests served")->Add(3);
  Histogram* h = registry.GetHistogram("latency_us", "storage", "Latency");
  h->Record(0);     // bucket 0, le="0"
  h->Record(3);     // bucket 2, le="3"
  h->Record(1000);  // bucket 10, le="1023"
  std::string expected =
      "# HELP latency_us Latency\n"
      "# TYPE latency_us histogram\n"
      "latency_us_bucket{layer=\"storage\",le=\"0\"} 1\n"
      "latency_us_bucket{layer=\"storage\",le=\"3\"} 2\n"
      "latency_us_bucket{layer=\"storage\",le=\"1023\"} 3\n"
      "latency_us_bucket{layer=\"storage\",le=\"+Inf\"} 3\n"
      "latency_us_sum{layer=\"storage\"} 1003\n"
      "latency_us_count{layer=\"storage\"} 3\n"
      "# HELP requests_total Requests served\n"
      "# TYPE requests_total counter\n"
      "requests_total{layer=\"api\"} 3\n";
  EXPECT_EQ(registry.ToPrometheusText(), expected);
}

TEST(MetricsRegistryTest, PrometheusEscapesNamesAndLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("bad name-1", "la\"y\\er\n", "h")->Add(1);
  std::string text = registry.ToPrometheusText();
  // Name sanitized to [a-zA-Z0-9_:]; label value escapes quote, backslash,
  // and newline.
  EXPECT_NE(text.find("bad_name_1{layer=\"la\\\"y\\\\er\\n\"} 1"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        registry.GetCounter("shared_total", "api", "")->Increment();
        registry.GetHistogram("shared_us", "api", "")->Record(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared_total", "api", "")->Value(),
            uint64_t(kThreads) * 200);
  EXPECT_EQ(registry.GetHistogram("shared_us", "api", "")->Snapshot().count,
            uint64_t(kThreads) * 200);
  EXPECT_EQ(registry.num_metrics(), 2u);
}

// --- Trace spans ------------------------------------------------------------

TEST(TraceTest, SpansNestWithParentAndDepth) {
  Trace trace;
  int32_t root = trace.Open("api", "root");
  int32_t child = trace.Open("engine", "child");
  trace.Note("engine", "note");
  int32_t grandchild = trace.Open("prober", "grandchild");
  trace.Close(grandchild);
  trace.Close(child);
  int32_t sibling = trace.Open("storage", "sibling");
  trace.Close(sibling);
  trace.Close(root);

  ASSERT_EQ(trace.spans().size(), 5u);
  const auto& spans = trace.spans();
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_STREQ(spans[2].name, "note");
  EXPECT_EQ(spans[2].parent, 1);  // note nests under the open child
  EXPECT_EQ(spans[3].parent, 1);
  EXPECT_EQ(spans[3].depth, 2);
  EXPECT_EQ(spans[4].parent, 0);  // sibling reattaches to the root
  EXPECT_EQ(spans[4].depth, 1);
  // Closed spans have durations; the root's covers its children.
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
  EXPECT_TRUE(trace.HasLayer("api"));
  EXPECT_TRUE(trace.HasLayer("prober"));
  EXPECT_FALSE(trace.HasLayer("delta"));
}

TEST(TraceTest, BufferTruncatesAndCountsDrops) {
  Trace trace(/*max_spans=*/3);
  int32_t a = trace.Open("api", "a");
  int32_t b = trace.Open("api", "b");
  int32_t c = trace.Open("api", "c");
  int32_t d = trace.Open("api", "d");  // over the cap
  EXPECT_EQ(d, -1);
  trace.Note("api", "dropped-note");
  trace.Close(d);  // no-op
  trace.Close(c);
  trace.Close(b);
  trace.Close(a);
  EXPECT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos) << json;
}

TEST(TraceTest, ScopedTargetInstallsAndRestores) {
#if HYPRE_TELEMETRY_ENABLED
  EXPECT_EQ(ActiveTrace(), nullptr);
  Trace outer_trace;
  Trace inner_trace;
  {
    ScopedTraceTarget outer(&outer_trace);
    EXPECT_EQ(ActiveTrace(), &outer_trace);
    { TraceSpan span("api", "outer_span"); }
    {
      ScopedTraceTarget inner(&inner_trace);
      EXPECT_EQ(ActiveTrace(), &inner_trace);
      { TraceSpan span("api", "inner_span"); }
      // Null suppresses tracing within a sub-scope.
      {
        ScopedTraceTarget quiet(nullptr);
        EXPECT_EQ(ActiveTrace(), nullptr);
        TraceSpan span("api", "suppressed");
      }
      EXPECT_EQ(ActiveTrace(), &inner_trace);
    }
    EXPECT_EQ(ActiveTrace(), &outer_trace);
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
  ASSERT_EQ(outer_trace.spans().size(), 1u);
  EXPECT_STREQ(outer_trace.spans()[0].name, "outer_span");
  ASSERT_EQ(inner_trace.spans().size(), 1u);
  EXPECT_STREQ(inner_trace.spans()[0].name, "inner_span");
#else
  GTEST_SKIP() << "telemetry compiled out";
#endif
}

// --- Session integration ----------------------------------------------------

class TelemetrySessionTest : public ::testing::Test {
 protected:
  static std::unique_ptr<reldb::Database> MakeDb() {
    auto db = std::make_unique<reldb::Database>();
    BuildMiniDblp(db.get());
    return db;
  }

  static api::EnumerationRequest MakeRequest(const std::string& algorithm) {
    api::EnumerationRequest request;
    request.algorithm = algorithm;
    request.base_query = MiniBaseQuery();
    request.key_column = "dblp.pid";
    request.preferences = MiniPreferences();
    return request;
  }
};

TEST_F(TelemetrySessionTest, TracedRequestMatchesUntracedResults) {
  api::Session session(MakeDb());
  api::EnumerationRequest request = MakeRequest("combine-two");
  // Warm the engine so both measured requests hit the same cache state.
  ASSERT_TRUE(session.Enumerate(request).ok());

  auto untraced = session.Enumerate(request);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  request.trace = true;
  auto traced = session.Enumerate(request);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Tracing is observation only: identical records and identical
  // per-request probe accounting.
  ASSERT_EQ(traced->records.size(), untraced->records.size());
  for (size_t i = 0; i < traced->records.size(); ++i) {
    EXPECT_EQ(traced->records[i].predicate_sql,
              untraced->records[i].predicate_sql);
    EXPECT_EQ(traced->records[i].num_tuples, untraced->records[i].num_tuples);
  }
  EXPECT_EQ(traced->stats.num_leaf_queries, untraced->stats.num_leaf_queries);
  EXPECT_EQ(traced->stats.num_cache_hits, untraced->stats.num_cache_hits);
  EXPECT_EQ(traced->stats.num_batches, untraced->stats.num_batches);
  EXPECT_EQ(traced->stats.num_batched_probes,
            untraced->stats.num_batched_probes);

  EXPECT_TRUE(untraced->trace.empty());
#if HYPRE_TELEMETRY_ENABLED
  ASSERT_FALSE(traced->trace.empty());
  EXPECT_STREQ(traced->trace.spans()[0].name, "enumerate");
  EXPECT_TRUE(traced->trace.HasLayer("api"));
#else
  EXPECT_TRUE(traced->trace.empty());
#endif
}

TEST_F(TelemetrySessionTest, MutateRefreshEnumerateTracesFourLayers) {
#if HYPRE_TELEMETRY_ENABLED
  std::string dir = MakeTempDir("trace_layers");
  storage::StorageOptions options;
  options.auto_checkpoint_mutations = 1;
  api::Session session(MakeDb());
  api::EnumerationRequest request = MakeRequest("combine-two");
  ASSERT_TRUE(session.Enumerate(request).ok());
  ASSERT_TRUE(session.AttachStorage(dir, options).ok());

  // One mutation crosses the threshold; the traced request then commits
  // the WAL + queues the snapshot (storage), drains the journal (delta),
  // and probes (prober) under the api root span.
  reldb::Table* da = session.mutable_db()->GetTable("dblp_author");
  ASSERT_TRUE(da->Append({reldb::Value::Int(2), reldb::Value::Int(3)}).ok());
  request.trace = true;
  auto traced = session.Enumerate(request);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  const Trace& trace = traced->trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(trace.HasLayer("api")) << trace.ToJson();
  EXPECT_TRUE(trace.HasLayer("prober")) << trace.ToJson();
  EXPECT_TRUE(trace.HasLayer("delta")) << trace.ToJson();
  EXPECT_TRUE(trace.HasLayer("storage")) << trace.ToJson();
#else
  GTEST_SKIP() << "telemetry compiled out";
#endif
}

// Env wrapper that can hold the snapshot's temp-file creation hostage —
// proving the request path returns while the snapshot write is in flight.
class BlockingEnv : public storage::Env {
 public:
  explicit BlockingEnv(Env* base) : base_(base) {}

  void Arm() { armed_.store(true); }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  bool IsBlocked() {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_;
  }

  Result<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    if (armed_.load() && path.find("snapshot.hypre.tmp") != std::string::npos) {
      std::unique_lock<std::mutex> lock(mu_);
      blocked_ = true;
      cv_.wait(lock, [&] { return released_; });
      blocked_ = false;
    }
    return base_->NewWritableFile(path, truncate);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  Env* base_;
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

TEST_F(TelemetrySessionTest, BackgroundCheckpointDoesNotBlockRequests) {
  std::string dir = MakeTempDir("bg_ckpt");
  BlockingEnv env(storage::Env::Default());
  storage::StorageOptions options;
  options.env = &env;
  options.auto_checkpoint_mutations = 1;

  uint64_t final_seq = 0;
  {
    api::Session session(MakeDb());
    api::EnumerationRequest request = MakeRequest("combine-two");
    ASSERT_TRUE(session.Enumerate(request).ok());
    // The initial checkpoint is synchronous; arm the gate only afterwards.
    ASSERT_TRUE(session.AttachStorage(dir, options).ok());
    env.Arm();

    reldb::Table* da = session.mutable_db()->GetTable("dblp_author");
    ASSERT_TRUE(
        da->Append({reldb::Value::Int(2), reldb::Value::Int(3)}).ok());
    // This request queues the snapshot write and MUST return while the
    // worker is stuck in the blocked env.
    ASSERT_TRUE(session.Enumerate(request).ok());
    EXPECT_TRUE(session.checkpoint_in_flight());

    // The request path stays fully serviceable while the write is hostage —
    // including further mutations (their checkpoint is skipped, not waited
    // on, while one is in flight).
    ASSERT_TRUE(
        da->Append({reldb::Value::Int(5), reldb::Value::Int(1)}).ok());
    ASSERT_TRUE(session.Enumerate(request).ok());
    EXPECT_TRUE(session.checkpoint_in_flight());

    env.Release();
    while (session.checkpoint_in_flight()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // An explicit snapshot drains + retires the background one and covers
    // the second mutation synchronously.
    ASSERT_TRUE(session.SaveSnapshot().ok());
    final_seq = session.store()->snapshot_sequence();
    EXPECT_EQ(final_seq, session.db()->journal().sequence());
  }

  auto reopened = api::Session::OpenFromSnapshot(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->db()->journal().sequence(), final_seq);
}

}  // namespace
}  // namespace telemetry
}  // namespace hypre
