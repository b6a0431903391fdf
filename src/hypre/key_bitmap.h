// Word-packed bitmap over dense key ids.
//
// The probe engine interns the base query's key universe into contiguous
// dense ids once, then represents every predicate's matching-key set as one
// of these bitmaps. Group-level set algebra (AND/OR/NOT over key sets)
// becomes word-wise bitwise ops and counting becomes popcount, which is what
// makes the thousands of probes the combination algorithms issue cheap.
//
// Storage is 64-byte aligned (cache-line / AVX2 vector) and the streaming
// word passes route through parallel::ActiveWordKernels(), so Count /
// AndWith / AndCount pick up the SIMD kernels when the build compiles them
// in. Semantics are exact — the scalar and SIMD kernels produce
// byte-identical words and identical counts.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hypre/parallel/aligned_alloc.h"

namespace hypre {
namespace core {

class KeyBitmap {
 public:
  /// Bits per storage word. Shard widths (see batch_prober.h) are expressed
  /// in words of this size.
  static constexpr size_t kWordBits = 64;

  /// Cache-line-aligned word storage (see aligned_alloc.h).
  using WordVector =
      std::vector<uint64_t, parallel::AlignedAllocator<uint64_t>>;

  KeyBitmap() = default;
  /// \brief A bitmap of `num_bits` bits, all clear (or all set).
  explicit KeyBitmap(size_t num_bits, bool all_set = false);

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  /// \brief Grows (or shrinks) to `num_bits` bits, preserving the common
  /// prefix; new bits are clear. The delta engine's universe tail-growth
  /// path resizes every cached bitmap through this before setting new-key
  /// bits.
  void Resize(size_t num_bits);

  /// \brief Raw word storage (num_words() entries, tail bits past num_bits()
  /// always clear). The batch prober's blocked shard passes read and write
  /// through these instead of per-bit accessors.
  const uint64_t* word_data() const { return words_.data(); }
  uint64_t* word_data() { return words_.data(); }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// \brief Number of set bits (popcount).
  size_t Count() const;
  bool Any() const;
  bool None() const { return !Any(); }

  /// \brief In-place set algebra. All operands must share num_bits().
  void AndWith(const KeyBitmap& other);
  void OrWith(const KeyBitmap& other);
  /// \brief this &= ~other (set difference).
  void AndNotWith(const KeyBitmap& other);
  /// \brief Complement within num_bits().
  void FlipAll();

  /// \brief popcount(a & b) without materializing the intersection — the
  /// inner loop of the PEPS pair table and expansion probes.
  static size_t AndCount(const KeyBitmap& a, const KeyBitmap& b);
  /// \brief True iff (a & b) has at least one set bit.
  static bool Intersects(const KeyBitmap& a, const KeyBitmap& b);

  /// \brief Calls `fn(id)` for every set bit in ascending id order.
  template <typename Fn>
  void ForEachSet(Fn fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        unsigned bit = static_cast<unsigned>(std::countr_zero(word));
        fn(static_cast<uint32_t>((w << 6) + bit));
        word &= word - 1;  // clear lowest set bit
      }
    }
  }

  /// \brief The set bits as ascending dense ids.
  std::vector<uint32_t> ToIds() const;

  bool operator==(const KeyBitmap& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }
  bool operator!=(const KeyBitmap& other) const { return !(*this == other); }

 private:
  /// Clears the bits past num_bits_ in the last word so popcount and
  /// equality stay exact after FlipAll.
  void ClearTail();

  size_t num_bits_ = 0;
  WordVector words_;
};

}  // namespace core
}  // namespace hypre
