#include "hypre/parallel/word_kernels.h"

#include <bit>

namespace hypre {
namespace parallel {

namespace {

void ScalarCopy(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[i];
}

void ScalarOrInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void ScalarAndInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void ScalarAndNotInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void ScalarAndTo(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

size_t ScalarPopcount(const uint64_t* src, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(src[i]));
  }
  return count;
}

size_t ScalarAndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

size_t ScalarAnd3Count(const uint64_t* a, const uint64_t* b,
                       const uint64_t* c, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i] & c[i]));
  }
  return count;
}

const WordKernels kScalarKernels = {
    "scalar",         ScalarCopy,  ScalarOrInto,   ScalarAndInto,
    ScalarAndNotInto, ScalarAndTo, ScalarPopcount, ScalarAndCount,
    ScalarAnd3Count,
};

}  // namespace

const WordKernels& ScalarWordKernels() { return kScalarKernels; }

const WordKernels& ActiveWordKernels() {
  const WordKernels* avx2 = Avx2WordKernelsOrNull();
  return avx2 != nullptr ? *avx2 : kScalarKernels;
}

bool SimdKernelsCompiled() { return Avx2WordKernelsOrNull() != nullptr; }

}  // namespace parallel
}  // namespace hypre
