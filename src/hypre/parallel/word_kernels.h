// Vectorized word kernels for the bitmap probe path.
//
// Every hot loop in KeyBitmap and CombinationProber's batch counts is a
// streaming pass over contiguous uint64_t words: OR-within-group,
// AND-across-groups, live-mask AND, and popcount accumulation. This header exposes those passes as a
// table of function pointers with two implementations:
//
//  * scalar — portable C++ (std::popcount word loop), always compiled. On
//    the default baseline build (no -march flags) std::popcount lowers to
//    the SWAR bit-hack sequence, not POPCNT.
//  * avx2 — 256-bit AVX2: 4 words per op, popcount via the nibble-lookup
//    (Mula) algorithm + SAD accumulation. Compiled only when CMake enables
//    HYPRE_SIMD (which adds -mavx2 to word_kernels_avx2.cc alone, so the
//    rest of the library stays baseline).
//
// Dispatch is COMPILE-TIME: ActiveWordKernels() returns the avx2 table when
// it was compiled in, the scalar table otherwise — no CPUID probing, so a
// HYPRE_SIMD build requires an AVX2 machine (build with -DHYPRE_SIMD=OFF
// for the portable kernels). The probe path only ever calls
// ActiveWordKernels(); ScalarWordKernels() stays reachable in every build
// so the kernel-level differential tests and benches can compare the two
// tables directly.
//
// Contract shared by both implementations: `n` is a word count, ranges may
// be unaligned (the shard grid cuts at arbitrary word offsets), and
// outputs/counts are exactly equal between variants — bitwise ops and
// popcount have no reassociation slack.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hypre {
namespace parallel {

/// \brief One implementation of the streaming word passes. All pointers are
/// non-null; dst/src ranges must not overlap (except dst == a in and_to).
struct WordKernels {
  const char* name;  // "scalar" or "avx2"
  /// dst[i] = src[i]
  void (*copy)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] |= src[i]
  void (*or_into)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] &= src[i]
  void (*and_into)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] &= ~src[i]
  void (*andnot_into)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] = a[i] & b[i]
  void (*and_to)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                 size_t n);
  /// sum(popcount(src[i]))
  size_t (*popcount)(const uint64_t* src, size_t n);
  /// sum(popcount(a[i] & b[i]))
  size_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// sum(popcount(a[i] & b[i] & c[i])) — the live-mask variant of and_count.
  size_t (*and3_count)(const uint64_t* a, const uint64_t* b,
                       const uint64_t* c, size_t n);
};

/// \brief The portable implementation (always available).
const WordKernels& ScalarWordKernels();

/// \brief The compile-time-dispatched implementation: avx2 when compiled
/// in, scalar otherwise.
const WordKernels& ActiveWordKernels();

/// \brief True when the avx2 table was compiled in (HYPRE_SIMD build on
/// x86-64).
bool SimdKernelsCompiled();

/// \brief Implementation hook for the AVX2 translation unit; null when not
/// compiled in. Use ActiveWordKernels() instead.
const WordKernels* Avx2WordKernelsOrNull();

}  // namespace parallel
}  // namespace hypre
