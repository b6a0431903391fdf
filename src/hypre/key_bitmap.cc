#include "hypre/key_bitmap.h"

#include "hypre/parallel/word_kernels.h"

namespace hypre {
namespace core {

KeyBitmap::KeyBitmap(size_t num_bits, bool all_set)
    : num_bits_(num_bits),
      words_((num_bits + 63) / 64, all_set ? ~uint64_t{0} : uint64_t{0}) {
  if (all_set) ClearTail();
}

void KeyBitmap::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize((num_bits + 63) / 64, uint64_t{0});
  ClearTail();
}

void KeyBitmap::ClearTail() {
  size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

size_t KeyBitmap::Count() const {
  return parallel::ActiveWordKernels().popcount(words_.data(), words_.size());
}

bool KeyBitmap::Any() const {
  for (uint64_t word : words_) {
    if (word != 0) return true;
  }
  return false;
}

void KeyBitmap::AndWith(const KeyBitmap& other) {
  assert(num_bits_ == other.num_bits_);
  parallel::ActiveWordKernels().and_into(words_.data(), other.words_.data(),
                                         words_.size());
}

void KeyBitmap::OrWith(const KeyBitmap& other) {
  assert(num_bits_ == other.num_bits_);
  parallel::ActiveWordKernels().or_into(words_.data(), other.words_.data(),
                                        words_.size());
}

void KeyBitmap::AndNotWith(const KeyBitmap& other) {
  assert(num_bits_ == other.num_bits_);
  parallel::ActiveWordKernels().andnot_into(words_.data(), other.words_.data(),
                                            words_.size());
}

void KeyBitmap::FlipAll() {
  for (uint64_t& word : words_) word = ~word;
  ClearTail();
}

size_t KeyBitmap::AndCount(const KeyBitmap& a, const KeyBitmap& b) {
  assert(a.num_bits_ == b.num_bits_);
  return parallel::ActiveWordKernels().and_count(a.words_.data(),
                                                 b.words_.data(),
                                                 a.words_.size());
}

bool KeyBitmap::Intersects(const KeyBitmap& a, const KeyBitmap& b) {
  assert(a.num_bits_ == b.num_bits_);
  for (size_t w = 0; w < a.words_.size(); ++w) {
    if ((a.words_[w] & b.words_[w]) != 0) return true;
  }
  return false;
}

std::vector<uint32_t> KeyBitmap::ToIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(Count());
  ForEachSet([&](uint32_t id) { ids.push_back(id); });
  return ids;
}

}  // namespace core
}  // namespace hypre
