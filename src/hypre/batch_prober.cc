#include "hypre/batch_prober.h"

#include <algorithm>
#include <thread>

#include "hypre/parallel/task_pool.h"
#include "hypre/parallel/word_kernels.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"

namespace hypre {
namespace core {

namespace {

/// Shards a kernel pass walks over `num_words` words — the batch-shape unit
/// reported into ProbeStats. Stats stay tile-layout-independent: the same
/// batch reports the same shard count whether it ran inline or work-stolen.
size_t NumShards(const ProbeOptions& options, size_t num_words) {
  size_t shard_words = std::max<size_t>(1, options.shard_words);
  return (num_words + shard_words - 1) / shard_words;
}

/// Combinations per frontier-block tile. Small enough that a big frontier
/// over few shards still fans out (512 combinations / 32 = 16 tiles per
/// shard), large enough that a tile amortizes its scheduling cost.
constexpr size_t kItemTile = 32;

#if HYPRE_TELEMETRY_ENABLED
/// Batch-shape histograms: how many probes a batch call answers and how
/// many shard passes it takes. Once per batch, never per word — the probe
/// inner loops stay untouched.
void RecordBatchShape(size_t batch, size_t shards) {
  static telemetry::Histogram* batch_size =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "hypre_prober_batch_size", "prober",
          "Probes answered per batch kernel call");
  static telemetry::Histogram* shard_passes =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "hypre_prober_shards_per_batch", "prober",
          "Shard passes per batch kernel call");
  batch_size->Record(batch);
  shard_passes->Record(shards);
}
#endif

}  // namespace

Result<BatchProber::CompiledFrontier> BatchProber::Compile(
    const std::vector<Combination>& frontier) const {
  CompiledFrontier compiled;
  // With tombstoned keys in the engine, the live mask joins every non-empty
  // combination as one more single-member AND group, so the shard kernels
  // mask deleted keys out with zero extra code paths — the same mask
  // CombinationProber::BitsInto ANDs.
  const uint64_t* mask_words = nullptr;
  if (prober_->engine().has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live,
                           prober_->engine().UniverseBitmap());
    mask_words = live->word_data();
    compiled.num_words = live->num_words();
  }
  for (const auto& combination : frontier) {
    CompiledFrontier::Item item;
    item.begin = static_cast<uint32_t>(compiled.groups.size());
    for (const auto& group : combination.groups) {
      CompiledFrontier::Group g;
      g.begin = static_cast<uint32_t>(compiled.member_words.size());
      for (size_t member : group.members) {
        HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                               prober_->PreferenceBits(member));
        compiled.member_words.push_back(bits->word_data());
        compiled.num_words = bits->num_words();
      }
      g.end = static_cast<uint32_t>(compiled.member_words.size());
      compiled.groups.push_back(g);
    }
    if (mask_words != nullptr && !combination.groups.empty()) {
      CompiledFrontier::Group g;
      g.begin = static_cast<uint32_t>(compiled.member_words.size());
      compiled.member_words.push_back(mask_words);
      g.end = static_cast<uint32_t>(compiled.member_words.size());
      compiled.groups.push_back(g);
    }
    item.end = static_cast<uint32_t>(compiled.groups.size());
    compiled.items.push_back(item);
  }
  return compiled;
}

size_t BatchProber::PlanSlots(size_t num_words, size_t num_items) const {
  size_t threads = options_.num_threads;
  if (threads == 0) {
    // Auto-detect: saturate the machine, never oversubscribe it.
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<size_t>(hw) : 1;
  }
  if (threads <= 1) return 1;
  size_t shard_words = std::max<size_t>(1, options_.shard_words);
  size_t num_shards = (num_words + shard_words - 1) / shard_words;
  size_t item_tiles = (num_items + kItemTile - 1) / kItemTile;
  // Clamp so every slot can start with at least one tile: no worker range
  // is ever empty, whatever the thread/shard ratio.
  size_t max_tiles = num_shards * std::max<size_t>(1, item_tiles);
  return std::min(threads, std::max<size_t>(1, max_tiles));
}

BatchProber::TileGrid BatchProber::MakeGrid(size_t num_words,
                                            size_t num_items,
                                            size_t slots) const {
  TileGrid grid;
  grid.shard_words = std::max<size_t>(1, options_.shard_words);
  grid.num_words = num_words;
  grid.num_shards = (num_words + grid.shard_words - 1) / grid.shard_words;
  grid.num_items = num_items;
  if (slots <= 1) {
    // Inline runs keep the frontier whole per shard — the PR 2 loop shape,
    // no tiling overhead.
    grid.item_tile = std::max<size_t>(1, num_items);
  } else {
    grid.item_tile = kItemTile;
  }
  grid.num_item_tiles =
      num_items == 0 ? 0 : (num_items + grid.item_tile - 1) / grid.item_tile;
  return grid;
}

parallel::TaskPool* BatchProber::SchedulePool(size_t slots) const {
  if (slots <= 1) return nullptr;
  return options_.pool != nullptr ? options_.pool
                                  : parallel::TaskPool::Shared();
}

template <typename Kernel>
void BatchProber::ForEachTile(const TileGrid& grid, size_t slots,
                              Kernel&& kernel) const {
  size_t num_tiles = grid.num_tiles();
  if (num_tiles == 0) return;
  auto run_tile = [&](size_t t, size_t slot) {
    size_t shard = t / grid.num_item_tiles;
    size_t block = t % grid.num_item_tiles;
    size_t w0 = shard * grid.shard_words;
    size_t w1 = std::min(grid.num_words, w0 + grid.shard_words);
    size_t i0 = block * grid.item_tile;
    size_t i1 = std::min(grid.num_items, i0 + grid.item_tile);
    kernel(w0, w1, i0, i1, slot);
  };

  if (slots <= 1 || num_tiles <= 1) {
    for (size_t t = 0; t < num_tiles; ++t) run_tile(t, 0);
    return;
  }

  parallel::TaskPool* pool = SchedulePool(slots);
  pool->ParallelFor(num_tiles, /*grain=*/0, slots,
                    [&run_tile](size_t begin, size_t end, size_t slot) {
                      for (size_t t = begin; t < end; ++t) run_tile(t, slot);
                    });
}

Result<std::vector<size_t>> BatchProber::CountBatch(
    const std::vector<Combination>& frontier) const {
  telemetry::TraceSpan span("prober", "count_batch");
  std::vector<size_t> counts(frontier.size(), 0);
  if (frontier.empty()) return counts;
  HYPRE_ASSIGN_OR_RETURN(CompiledFrontier plan, Compile(frontier));
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();

  size_t slots = PlanSlots(plan.num_words, frontier.size());
  TileGrid grid = MakeGrid(plan.num_words, frontier.size(), slots);
  size_t shard_words = grid.shard_words;
  // Per-slot scratch: one OR-group buffer and one AND accumulator, each one
  // shard wide, plus a per-slot counts buffer. The kernels stream
  // CONTIGUOUS word runs per member (hoisted pointers) through the word-
  // kernel table. Single-threaded runs accumulate straight into `counts`
  // through reused member scratch (no per-call allocations); parallel runs
  // use per-slot buffers reduced in slot order after the pass — exact
  // commutative sums, so totals are byte-identical for every schedule.
  bool inline_run = slots == 1;
  std::vector<std::vector<size_t>> partial(
      inline_run ? 0 : slots, std::vector<size_t>(frontier.size(), 0));
  std::vector<std::vector<uint64_t>> group_scratch(
      inline_run ? 0 : slots, std::vector<uint64_t>(shard_words));
  std::vector<std::vector<uint64_t>> acc_scratch(
      inline_run ? 0 : slots, std::vector<uint64_t>(shard_words));
  if (inline_run) {
    if (group_word_scratch_.size() < shard_words) {
      group_word_scratch_.resize(shard_words);
      acc_word_scratch_.resize(shard_words);
    }
  }
  ForEachTile(grid, slots,
              [&](size_t w0, size_t w1, size_t i0, size_t i1, size_t slot) {
    std::vector<size_t>& mine = inline_run ? counts : partial[slot];
    uint64_t* grp = inline_run ? group_word_scratch_.data()
                               : group_scratch[slot].data();
    uint64_t* acc = inline_run ? acc_word_scratch_.data()
                               : acc_scratch[slot].data();
    size_t len = w1 - w0;
    for (size_t i = i0; i < i1; ++i) {
      const auto& item = plan.items[i];
      // Empty combination: BitsInto yields an empty bitmap (count 0).
      if (item.begin == item.end) continue;
      // acc_src tracks the current accumulated words; it stays a borrowed
      // member pointer until a second group forces a materialized AND.
      const uint64_t* acc_src = nullptr;
      for (uint32_t g = item.begin; g < item.end; ++g) {
        const auto& group = plan.groups[g];
        const uint64_t* group_src;
        if (group.end - group.begin == 1) {
          group_src = plan.member_words[group.begin] + w0;
        } else {
          kn.copy(grp, plan.member_words[group.begin] + w0, len);
          for (uint32_t m = group.begin + 1; m < group.end; ++m) {
            kn.or_into(grp, plan.member_words[m] + w0, len);
          }
          group_src = grp;
        }
        if (acc_src == nullptr) {
          if (group_src == grp && item.end - item.begin > 1) {
            // grp is overwritten by the next group's OR fold; materialize.
            kn.copy(acc, grp, len);
            acc_src = acc;
          } else {
            acc_src = group_src;
          }
        } else {
          kn.and_to(acc, acc_src, group_src, len);
          acc_src = acc;
        }
      }
      mine[i] += kn.popcount(acc_src, len);
    }
  });
  for (const auto& mine : partial) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += mine[i];
  }
  prober_->engine().NoteBatchAnswered(frontier.size(),
                                      NumShards(options_, plan.num_words));
  HYPRE_TELEMETRY_STMT(
      RecordBatchShape(frontier.size(), NumShards(options_, plan.num_words)));
  return counts;
}

Result<std::vector<size_t>> BatchProber::CountExtensions(
    const KeyBitmap& base, const std::vector<size_t>& candidates) const {
  telemetry::TraceSpan span("prober", "count_extensions");
  std::vector<size_t> counts(candidates.size(), 0);
  if (candidates.empty()) return counts;
  ptr_scratch_.clear();
  for (size_t candidate : candidates) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                           prober_->PreferenceBits(candidate));
    ptr_scratch_.push_back(bits->word_data());
  }
  const uint64_t* base_words = base.word_data();
  size_t num_words = base.num_words();
  const uint64_t* mask = nullptr;
  if (prober_->engine().has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live,
                           prober_->engine().UniverseBitmap());
    mask = live->word_data();
  }
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();

  size_t slots = PlanSlots(num_words, candidates.size());
  TileGrid grid = MakeGrid(num_words, candidates.size(), slots);
  bool inline_run = slots == 1;
  std::vector<std::vector<size_t>> partial(
      inline_run ? 0 : slots, std::vector<size_t>(candidates.size(), 0));
  ForEachTile(grid, slots,
              [&](size_t w0, size_t w1, size_t i0, size_t i1, size_t slot) {
    std::vector<size_t>& mine = inline_run ? counts : partial[slot];
    size_t len = w1 - w0;
    for (size_t i = i0; i < i1; ++i) {
      const uint64_t* cand = ptr_scratch_[i];
      mine[i] += mask == nullptr
                     ? kn.and_count(base_words + w0, cand + w0, len)
                     : kn.and3_count(base_words + w0, cand + w0, mask + w0,
                                     len);
    }
  });
  for (const auto& mine : partial) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += mine[i];
  }
  prober_->engine().NoteBatchAnswered(candidates.size(),
                                      NumShards(options_, num_words));
  HYPRE_TELEMETRY_STMT(
      RecordBatchShape(candidates.size(), NumShards(options_, num_words)));
  return counts;
}

Result<std::vector<size_t>> BatchProber::CountPairs(
    const std::vector<std::pair<size_t, size_t>>& pairs) const {
  telemetry::TraceSpan span("prober", "count_pairs");
  std::vector<size_t> counts(pairs.size(), 0);
  if (pairs.empty()) return counts;
  std::vector<std::pair<const uint64_t*, const uint64_t*>> words(pairs.size());
  size_t num_words = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* a,
                           prober_->PreferenceBits(pairs[i].first));
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* b,
                           prober_->PreferenceBits(pairs[i].second));
    words[i] = {a->word_data(), b->word_data()};
    num_words = a->num_words();
  }
  const uint64_t* mask = nullptr;
  if (prober_->engine().has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live,
                           prober_->engine().UniverseBitmap());
    mask = live->word_data();
  }
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();

  size_t slots = PlanSlots(num_words, pairs.size());
  TileGrid grid = MakeGrid(num_words, pairs.size(), slots);
  bool inline_run = slots == 1;
  std::vector<std::vector<size_t>> partial(
      inline_run ? 0 : slots, std::vector<size_t>(pairs.size(), 0));
  ForEachTile(grid, slots,
              [&](size_t w0, size_t w1, size_t i0, size_t i1, size_t slot) {
    std::vector<size_t>& mine = inline_run ? counts : partial[slot];
    size_t len = w1 - w0;
    for (size_t i = i0; i < i1; ++i) {
      const uint64_t* a = words[i].first;
      const uint64_t* b = words[i].second;
      mine[i] += mask == nullptr
                     ? kn.and_count(a + w0, b + w0, len)
                     : kn.and3_count(a + w0, b + w0, mask + w0, len);
    }
  });
  for (const auto& mine : partial) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += mine[i];
  }
  prober_->engine().NoteBatchAnswered(pairs.size(),
                                      NumShards(options_, num_words));
  HYPRE_TELEMETRY_STMT(
      RecordBatchShape(pairs.size(), NumShards(options_, num_words)));
  return counts;
}

Status BatchProber::EvalBatch(const std::vector<Combination>& frontier,
                              std::vector<KeyBitmap>* out) const {
  telemetry::TraceSpan span("prober", "eval_batch");
  out->clear();
  if (frontier.empty()) return Status::OK();
  HYPRE_ASSIGN_OR_RETURN(CompiledFrontier plan, Compile(frontier));
  HYPRE_ASSIGN_OR_RETURN(size_t universe_bits,
                         prober_->engine().UniverseSize());
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();

  size_t slots = PlanSlots(plan.num_words, frontier.size());
  TileGrid grid = MakeGrid(plan.num_words, frontier.size(), slots);
  // On parallel runs the output bitmaps are zeroed in parallel on the
  // pool (first-touch page placement on the workers that fill them).
  parallel::TaskPool* touch_pool = SchedulePool(slots);
  out->resize(frontier.size());
  std::vector<uint64_t*> out_words(frontier.size(), nullptr);
  for (size_t i = 0; i < frontier.size(); ++i) {
    // An empty combination stays a default (0-bit) bitmap, exactly as
    // CombinationProber::BitsInto leaves it.
    if (plan.items[i].begin == plan.items[i].end) continue;
    (*out)[i] = touch_pool != nullptr
                    ? KeyBitmap(universe_bits, touch_pool, slots)
                    : KeyBitmap(universe_bits);
    out_words[i] = (*out)[i].word_data();
  }

  std::vector<std::vector<uint64_t>> group_scratch(
      slots, std::vector<uint64_t>(grid.shard_words));
  ForEachTile(grid, slots,
              [&](size_t w0, size_t w1, size_t i0, size_t i1, size_t slot) {
    uint64_t* grp = group_scratch[slot].data();
    size_t len = w1 - w0;
    for (size_t i = i0; i < i1; ++i) {
      const auto& item = plan.items[i];
      uint64_t* base = out_words[i];
      if (base == nullptr) continue;
      // The output's own shard range is the AND accumulator: first group
      // copies straight into it, later groups AND in (tiles touch disjoint
      // (item, word-range) cells, so this is race-free).
      uint64_t* dst = base + w0;
      for (uint32_t g = item.begin; g < item.end; ++g) {
        const auto& group = plan.groups[g];
        bool first_group = g == item.begin;
        if (group.end - group.begin == 1) {
          const uint64_t* mw = plan.member_words[group.begin] + w0;
          if (first_group) {
            kn.copy(dst, mw, len);
          } else {
            kn.and_into(dst, mw, len);
          }
          continue;
        }
        kn.copy(grp, plan.member_words[group.begin] + w0, len);
        for (uint32_t m = group.begin + 1; m < group.end; ++m) {
          kn.or_into(grp, plan.member_words[m] + w0, len);
        }
        if (first_group) {
          kn.copy(dst, grp, len);
        } else {
          kn.and_into(dst, grp, len);
        }
      }
    }
  });
  prober_->engine().NoteBatchAnswered(frontier.size(),
                                      NumShards(options_, plan.num_words));
  HYPRE_TELEMETRY_STMT(
      RecordBatchShape(frontier.size(), NumShards(options_, plan.num_words)));
  return Status::OK();
}

}  // namespace core
}  // namespace hypre
