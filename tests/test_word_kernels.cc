// Tests for the scalar/SIMD word-kernel tables behind every bitmap pass,
// and the cache-line-aligned word storage they stream over.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "hypre/key_bitmap.h"
#include "hypre/parallel/word_kernels.h"

namespace hypre {
namespace parallel {
namespace {

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

// --- KeyBitmap word storage ------------------------------------------------

TEST(WordKernelsTest, KeyBitmapWordsAreCacheLineAlignedAndZeroed) {
  // The SIMD kernels rely on word 0 starting a cache line; growth through
  // Resize (the delta layer's tail-growth path) must keep that and clear
  // every new bit.
  for (size_t bits : {1ul, 63ul, 64ul, 65ul, 1ul << 20}) {
    core::KeyBitmap bitmap(bits);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(bitmap.word_data()) % 64, 0u)
        << "bits=" << bits;
    EXPECT_EQ(bitmap.Count(), 0u);
    bitmap.Set(bits - 1);
    bitmap.Resize(2 * bits + 1000);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(bitmap.word_data()) % 64, 0u)
        << "bits=" << bits;
    EXPECT_EQ(bitmap.Count(), 1u) << "bits=" << bits;
    EXPECT_TRUE(bitmap.Test(bits - 1));
  }
}

}  // namespace
}  // namespace parallel
}  // namespace hypre
