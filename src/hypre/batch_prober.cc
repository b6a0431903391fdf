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

/// Words per shard (a zero option means one).
size_t ShardWords(const ProbeOptions& options) {
  return std::max<size_t>(1, options.shard_words);
}

/// Shards a kernel pass walks over `num_words` words — the batch-shape unit
/// reported into ProbeStats. Stats stay tile-layout-independent: the same
/// batch reports the same shard count whether it ran inline or work-stolen.
size_t NumShards(const ProbeOptions& options, size_t num_words) {
  return (num_words + ShardWords(options) - 1) / ShardWords(options);
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

template <typename Kernel>
std::vector<size_t> BatchProber::RunTiles(size_t num_words, size_t num_items,
                                          Kernel&& kernel) const {
  std::vector<size_t> counts(num_items, 0);
  size_t shard_words = ShardWords(options_);
  size_t num_shards = NumShards(options_, num_words);
  size_t threads = options_.num_threads;
  if (threads == 0) {
    // Auto-detect: saturate the machine, never oversubscribe it.
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<size_t>(hw) : 1;
  }
  // Tile t covers shard t / item_tiles × item block t % item_tiles, so
  // consecutive tiles share a shard and a stolen run stays cache-hot on the
  // same leaf words. Inline runs keep the frontier whole per shard.
  size_t item_tile = threads <= 1 ? std::max<size_t>(1, num_items) : kItemTile;
  size_t item_tiles = (num_items + item_tile - 1) / item_tile;
  size_t num_tiles = num_shards * item_tiles;
  // Clamp so every slot can start with at least one tile: no worker range
  // is ever empty, whatever the thread/shard ratio.
  size_t slots = std::min(threads, num_tiles);
  auto run_tile = [&](size_t t, size_t* mine, uint64_t* scratch) {
    size_t w0 = (t / item_tiles) * shard_words;
    size_t i0 = (t % item_tiles) * item_tile;
    kernel(w0, std::min(num_words, w0 + shard_words), i0,
           std::min(num_items, i0 + item_tile), mine, scratch);
  };

  if (slots <= 1) {
    // The one-slot path — every served request's — accumulates straight
    // into `counts` through reused member scratch: no per-call allocation.
    if (tile_scratch_.size() < 2 * shard_words) {
      tile_scratch_.resize(2 * shard_words);
    }
    for (size_t t = 0; t < num_tiles; ++t) {
      run_tile(t, counts.data(), tile_scratch_.data());
    }
  } else {
    // Per-slot counts and scratch, reduced in slot order after the pass:
    // exact commutative sums, byte-identical for every schedule.
    std::vector<size_t> partial(slots * num_items, 0);
    std::vector<uint64_t> scratch(slots * 2 * shard_words);
    parallel::TaskPool* pool = options_.pool != nullptr
                                   ? options_.pool
                                   : parallel::TaskPool::Shared();
    pool->ParallelFor(num_tiles, /*grain=*/0, slots,
                      [&](size_t begin, size_t end, size_t slot) {
                        for (size_t t = begin; t < end; ++t) {
                          run_tile(t, &partial[slot * num_items],
                                   &scratch[slot * 2 * shard_words]);
                        }
                      });
    for (size_t slot = 0; slot < slots; ++slot) {
      for (size_t i = 0; i < num_items; ++i) {
        counts[i] += partial[slot * num_items + i];
      }
    }
  }
  prober_->engine().NoteBatchAnswered(num_items, num_shards);
  HYPRE_TELEMETRY_STMT(RecordBatchShape(num_items, num_shards));
  return counts;
}

Result<std::vector<size_t>> BatchProber::CountBatch(
    const std::vector<Combination>& frontier) const {
  telemetry::TraceSpan span("prober", "count_batch");
  if (frontier.empty()) return std::vector<size_t>{};
  HYPRE_ASSIGN_OR_RETURN(CompiledFrontier plan, Compile(frontier));
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();
  size_t shard_words = ShardWords(options_);
  // The kernels stream CONTIGUOUS word runs per member (hoisted pointers)
  // through the word-kernel table: one shard-wide OR-group buffer and one
  // AND accumulator per slot.
  return RunTiles(plan.num_words, frontier.size(),
                  [&](size_t w0, size_t w1, size_t i0, size_t i1,
                      size_t* counts, uint64_t* scratch) {
    uint64_t* grp = scratch;
    uint64_t* acc = scratch + shard_words;
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
      counts[i] += kn.popcount(acc_src, len);
    }
  });
}

Result<std::vector<size_t>> BatchProber::CountAnds(size_t num_words) const {
  const uint64_t* mask = nullptr;
  if (prober_->engine().has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live,
                           prober_->engine().UniverseBitmap());
    mask = live->word_data();
  }
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();
  return RunTiles(num_words, and_operands_.size(),
                  [&](size_t w0, size_t w1, size_t i0, size_t i1,
                      size_t* counts, uint64_t* /*scratch*/) {
    size_t len = w1 - w0;
    for (size_t i = i0; i < i1; ++i) {
      const auto [a, b] = and_operands_[i];
      counts[i] += mask == nullptr
                       ? kn.and_count(a + w0, b + w0, len)
                       : kn.and3_count(a + w0, b + w0, mask + w0, len);
    }
  });
}

Result<std::vector<size_t>> BatchProber::CountExtensions(
    const KeyBitmap& base, const std::vector<size_t>& candidates) const {
  telemetry::TraceSpan span("prober", "count_extensions");
  if (candidates.empty()) return std::vector<size_t>{};
  and_operands_.clear();
  for (size_t candidate : candidates) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                           prober_->PreferenceBits(candidate));
    and_operands_.emplace_back(base.word_data(), bits->word_data());
  }
  return CountAnds(base.num_words());
}

Result<std::vector<size_t>> BatchProber::CountPairs(
    const std::vector<std::pair<size_t, size_t>>& pairs) const {
  telemetry::TraceSpan span("prober", "count_pairs");
  if (pairs.empty()) return std::vector<size_t>{};
  and_operands_.clear();
  size_t num_words = 0;
  for (const auto& [i, j] : pairs) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* a, prober_->PreferenceBits(i));
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* b, prober_->PreferenceBits(j));
    and_operands_.emplace_back(a->word_data(), b->word_data());
    num_words = a->num_words();
  }
  return CountAnds(num_words);
}

}  // namespace core
}  // namespace hypre
