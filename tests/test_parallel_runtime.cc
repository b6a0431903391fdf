// Tests for the work-stealing parallel runtime (parallel::TaskPool,
// parallel::PartitionRange, parallel::RangeDeque via the pool) and the
// scalar/SIMD word-kernel tables.
//
// The steal-stress tests are deliberately racy-by-design workloads (skewed
// per-index work, repeated back-to-back regions, concurrent ParallelFor
// callers) and run under the CI TSan job: the Chase-Lev deque uses seq_cst
// atomics rather than standalone fences precisely so TSan can verify it.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hypre/key_bitmap.h"
#include "hypre/parallel/task_pool.h"
#include "hypre/parallel/word_kernels.h"

namespace hypre {
namespace parallel {
namespace {

// --- PartitionRange ---------------------------------------------------------

TEST(PartitionRangeTest, CoversExactlyAndBalances) {
  for (size_t n : {0ul, 1ul, 2ul, 7ul, 64ul, 1000ul, 1023ul}) {
    for (size_t parts : {1ul, 2ul, 3ul, 7ul, 8ul, 64ul}) {
      size_t covered = 0;
      size_t min_size = ~size_t{0};
      size_t max_size = 0;
      size_t expected_begin = 0;
      for (size_t p = 0; p < parts; ++p) {
        Range r = PartitionRange(n, parts, p);
        EXPECT_EQ(r.begin, expected_begin) << n << "/" << parts << "#" << p;
        expected_begin = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(expected_begin, n);
      // Balanced: sizes differ by at most one.
      EXPECT_LE(max_size - min_size, 1u) << n << "/" << parts;
      // No empty part unless there are more parts than indices — the
      // regression for the old ceil-division split, which handed later
      // workers nothing (e.g. 10 shards / 4 threads = sizes {3,3,3,1}
      // works but 9/8 gave {2,2,2,2,1,0,0,0}).
      if (parts <= n) EXPECT_GE(min_size, 1u) << n << "/" << parts;
    }
  }
}

TEST(PartitionRangeTest, MorePartsThanItems) {
  // parts > n: the first n parts get one index each, the rest are empty.
  size_t n = 3, parts = 8;
  for (size_t p = 0; p < parts; ++p) {
    Range r = PartitionRange(n, parts, p);
    EXPECT_EQ(r.size(), p < n ? 1u : 0u);
  }
}

// --- ParallelFor correctness ------------------------------------------------

class TaskPoolTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(PoolSizes, TaskPoolTest,
                         ::testing::Values(0, 1, 3, 7));

TEST_P(TaskPoolTest, EveryIndexExactlyOnce) {
  TaskPool pool(GetParam());
  for (size_t n : {0ul, 1ul, 2ul, 63ul, 64ul, 65ul, 4096ul, 100001ul}) {
    for (size_t grain : {0ul, 1ul, 16ul, 1000ul}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      pool.ParallelFor(n, grain, /*max_slots=*/0,
                       [&](size_t begin, size_t end, size_t slot) {
                         ASSERT_LT(slot, pool.max_parallelism());
                         for (size_t i = begin; i < end; ++i) {
                           hits[i].fetch_add(1, std::memory_order_relaxed);
                         }
                       });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u)
            << "n=" << n << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST_P(TaskPoolTest, PerSlotSumsReduceExactly) {
  TaskPool pool(GetParam());
  const size_t n = 50000;
  std::vector<size_t> per_slot(pool.max_parallelism(), 0);
  pool.ParallelFor(n, 64, 0, [&](size_t begin, size_t end, size_t slot) {
    for (size_t i = begin; i < end; ++i) per_slot[slot] += i;
  });
  size_t total = std::accumulate(per_slot.begin(), per_slot.end(), size_t{0});
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST_P(TaskPoolTest, MaxSlotsCapsSlotIds) {
  TaskPool pool(GetParam());
  std::atomic<size_t> max_seen{0};
  pool.ParallelFor(10000, 1, /*max_slots=*/2,
                   [&](size_t, size_t, size_t slot) {
                     size_t prev = max_seen.load(std::memory_order_relaxed);
                     while (slot > prev && !max_seen.compare_exchange_weak(
                                               prev, slot,
                                               std::memory_order_relaxed)) {
                     }
                   });
  EXPECT_LT(max_seen.load(), 2u);
}

TEST_P(TaskPoolTest, NestedParallelForRunsInline) {
  TaskPool pool(GetParam());
  std::atomic<size_t> outer_done{0};
  pool.ParallelFor(16, 1, 0, [&](size_t begin, size_t end, size_t outer_slot) {
    for (size_t i = begin; i < end; ++i) {
      // A nested region must run inline on the calling slot (no deadlock on
      // the region serialization, no slot-id collisions).
      pool.ParallelFor(100, 10, 0, [&](size_t, size_t, size_t inner_slot) {
        ASSERT_EQ(inner_slot, 0u);
      });
      outer_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(outer_done.load(), 16u);
}

TEST(TaskPoolTest, SharedPoolIsSingleton) {
  TaskPool* a = TaskPool::Shared();
  TaskPool* b = TaskPool::Shared();
  EXPECT_EQ(a, b);
  std::atomic<size_t> sum{0};
  a->ParallelFor(1000, 0, 0, [&](size_t begin, size_t end, size_t) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000u);
}

// --- Steal stress (TSan target) ---------------------------------------------

TEST(TaskPoolStressTest, SkewedWorkStealsCorrectly) {
  // Heavily skewed per-index cost: the first slots' seeded ranges hold all
  // the heavy indices, so finishing fast requires stealing. Every index
  // must still run exactly once and the reduction must be exact.
  TaskPool pool(7);
  const size_t n = 2000;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<uint8_t>> ran(n);
    for (auto& r : ran) r.store(0, std::memory_order_relaxed);
    std::vector<size_t> per_slot(pool.max_parallelism(), 0);
    pool.ParallelFor(n, 4, 0, [&](size_t begin, size_t end, size_t slot) {
      for (size_t i = begin; i < end; ++i) {
        // Quadratic skew: index 0 spins ~0, the last ~4k iterations.
        volatile size_t sink = 0;
        for (size_t s = 0; s < (i * i) / 1000; ++s) sink = sink + s;
        uint8_t prev = ran[i].exchange(1, std::memory_order_relaxed);
        ASSERT_EQ(prev, 0) << "index " << i << " ran twice";
        per_slot[slot] += 1;
      }
    });
    size_t total =
        std::accumulate(per_slot.begin(), per_slot.end(), size_t{0});
    ASSERT_EQ(total, n);
  }
}

TEST(TaskPoolStressTest, BackToBackRegions) {
  // Many consecutive small regions: exercises the park/unpark generation
  // protocol (a worker must never act on a stale region or miss a wakeup).
  TaskPool pool(3);
  for (int round = 0; round < 300; ++round) {
    std::atomic<size_t> count{0};
    pool.ParallelFor(64, 1, 0, [&](size_t begin, size_t end, size_t) {
      count.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64u);
  }
}

TEST(TaskPoolStressTest, ConcurrentCallersSerialize) {
  // ParallelFor from several external threads at once: regions must
  // serialize internally and each caller must get its own exact result.
  TaskPool pool(3);
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      for (int round = 0; round < 50; ++round) {
        size_t n = 128 + static_cast<size_t>(c) * 17;
        std::atomic<size_t> sum{0};
        pool.ParallelFor(n, 8, 0, [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            sum.fetch_add(i, std::memory_order_relaxed);
          }
        });
        if (sum.load() != n * (n - 1) / 2) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Word kernels -----------------------------------------------------------

std::vector<uint64_t> RandomWords(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

TEST(WordKernelsTest, ActiveMatchesScalarOnAllOps) {
  const WordKernels& scalar = ScalarWordKernels();
  const WordKernels& active = ActiveWordKernels();
  // Lengths straddle the 4-word SIMD block boundary and include the
  // scalar-tail-only cases.
  for (size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 33ul, 512ul, 1001ul}) {
    auto a = RandomWords(n, 1000 + n);
    auto b = RandomWords(n, 2000 + n);
    auto c = RandomWords(n, 3000 + n);

    auto dst_s = a, dst_v = a;
    scalar.or_into(dst_s.data(), b.data(), n);
    active.or_into(dst_v.data(), b.data(), n);
    EXPECT_EQ(dst_s, dst_v) << "or_into n=" << n;

    dst_s = a, dst_v = a;
    scalar.and_into(dst_s.data(), b.data(), n);
    active.and_into(dst_v.data(), b.data(), n);
    EXPECT_EQ(dst_s, dst_v) << "and_into n=" << n;

    dst_s = a, dst_v = a;
    scalar.andnot_into(dst_s.data(), b.data(), n);
    active.andnot_into(dst_v.data(), b.data(), n);
    EXPECT_EQ(dst_s, dst_v) << "andnot_into n=" << n;

    std::vector<uint64_t> to_s(n), to_v(n);
    scalar.and_to(to_s.data(), a.data(), b.data(), n);
    active.and_to(to_v.data(), a.data(), b.data(), n);
    EXPECT_EQ(to_s, to_v) << "and_to n=" << n;

    std::vector<uint64_t> copy_v(n, 0);
    active.copy(copy_v.data(), a.data(), n);
    EXPECT_EQ(copy_v, a) << "copy n=" << n;

    EXPECT_EQ(scalar.popcount(a.data(), n), active.popcount(a.data(), n));
    EXPECT_EQ(scalar.and_count(a.data(), b.data(), n),
              active.and_count(a.data(), b.data(), n));
    EXPECT_EQ(scalar.and3_count(a.data(), b.data(), c.data(), n),
              active.and3_count(a.data(), b.data(), c.data(), n));
  }
}

TEST(WordKernelsTest, AndToAllowsAliasedAccumulator) {
  // and_to's documented aliasing exception: dst == a (the batch kernel's
  // acc = acc & group step).
  const WordKernels& active = ActiveWordKernels();
  auto a = RandomWords(100, 7);
  auto b = RandomWords(100, 8);
  auto expect = a;
  for (size_t i = 0; i < 100; ++i) expect[i] &= b[i];
  active.and_to(a.data(), a.data(), b.data(), 100);
  EXPECT_EQ(a, expect);
}

TEST(WordKernelsTest, ActiveKernelsFollowTheBuild) {
  // The probe path's kernel choice is made at compile time: avx2 when the
  // build compiles it in, the portable table under -DHYPRE_SIMD=OFF.
  EXPECT_STREQ(ScalarWordKernels().name, "scalar");
  EXPECT_STREQ(ActiveWordKernels().name,
               SimdKernelsCompiled() ? "avx2" : "scalar");
}

// --- KeyBitmap first-touch constructor --------------------------------------

TEST(KeyBitmapPoolTest, PoolConstructorZeroesEverything) {
  TaskPool pool(3);
  for (size_t bits : {0ul, 63ul, 64ul, 65ul, 1ul << 20}) {
    core::KeyBitmap parallel_zeroed(bits, &pool);
    core::KeyBitmap serial(bits);
    EXPECT_EQ(parallel_zeroed, serial) << "bits=" << bits;
    EXPECT_EQ(parallel_zeroed.Count(), 0u);
    EXPECT_EQ(parallel_zeroed.num_bits(), bits);
  }
  // Null pool degrades to inline zeroing.
  core::KeyBitmap no_pool(1 << 18, static_cast<TaskPool*>(nullptr));
  EXPECT_EQ(no_pool.Count(), 0u);
}

}  // namespace
}  // namespace parallel
}  // namespace hypre
