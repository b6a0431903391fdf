// AVX2 implementations of the streaming word kernels. This translation
// unit is the ONLY one compiled with -mavx2 (CMake HYPRE_SIMD=ON); without
// that flag it compiles to a stub returning null and ActiveWordKernels()
// dispatches to the scalar table. All loads/stores are unaligned — the
// shard grid cuts bitmap word storage at arbitrary offsets.
#include "hypre/parallel/word_kernels.h"

#if defined(__AVX2__) && !defined(HYPRE_FORCE_SCALAR_KERNELS)

#include <immintrin.h>

#include <bit>

namespace hypre {
namespace parallel {

namespace {

/// Per-byte popcount of a 256-bit lane: nibble lookup (Mula's algorithm).
inline __m256i PopcountBytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Horizontal sum of a 4 x u64 accumulator.
inline size_t HorizontalSum(__m256i acc) {
  return static_cast<size_t>(_mm256_extract_epi64(acc, 0)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 1)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 2)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 3));
}

void Avx2Copy(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

void Avx2OrInto(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void Avx2AndInto(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(d, s));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void Avx2AndNotInto(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // andnot(a, b) = ~a & b
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s, d));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

void Avx2AndTo(uint64_t* dst, const uint64_t* a, const uint64_t* b,
               size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

size_t Avx2Popcount(const uint64_t* src, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(PopcountBytes(v), zero));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) count += static_cast<size_t>(std::popcount(src[i]));
  return count;
}

size_t Avx2AndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i v = _mm256_and_si256(va, vb);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(PopcountBytes(v), zero));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

size_t Avx2And3Count(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                     size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i vc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    __m256i v = _mm256_and_si256(_mm256_and_si256(va, vb), vc);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(PopcountBytes(v), zero));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i] & c[i]));
  }
  return count;
}

const WordKernels kAvx2Kernels = {
    "avx2",         Avx2Copy,  Avx2OrInto,   Avx2AndInto,
    Avx2AndNotInto, Avx2AndTo, Avx2Popcount, Avx2AndCount,
    Avx2And3Count,
};

}  // namespace

const WordKernels* Avx2WordKernelsOrNull() { return &kAvx2Kernels; }

}  // namespace parallel
}  // namespace hypre

#else  // !__AVX2__ || HYPRE_FORCE_SCALAR_KERNELS

namespace hypre {
namespace parallel {

const WordKernels* Avx2WordKernelsOrNull() { return nullptr; }

}  // namespace parallel
}  // namespace hypre

#endif
