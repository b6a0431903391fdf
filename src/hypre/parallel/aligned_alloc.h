// 64-byte-aligned allocator for bitmap word storage.
//
// Word arrays start on a cache-line (and AVX2-friendly) boundary, so the
// SIMD kernels never straddle a line at word 0 and per-shard slices share
// no false-sharing line with the vector header.
#pragma once

#include <cstddef>
#include <new>

namespace hypre {
namespace parallel {

template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, kAlignment);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

}  // namespace parallel
}  // namespace hypre
