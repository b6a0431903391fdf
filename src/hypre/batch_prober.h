// Batched, sharded combination probing — the only probe path the
// combination algorithms take.
//
// Probing a frontier of F combinations one at a time would re-stream every
// referenced leaf bitmap F times. BatchProber evaluates the whole frontier
// in one BLOCKED pass instead: the universe's bitmap words are partitioned
// into fixed-width shards, and for each shard every pending combination's
// OR-within-group / AND-across-groups words and popcounts are computed while
// that shard's leaf words are cache-resident. The inner word loops route
// through parallel::ActiveWordKernels() (AVX2 when the build compiles it
// in, the portable scalar kernels under -DHYPRE_SIMD=OFF).
//
// Parallelism: the blocked pass is cut into shard × frontier-block TILES
// (one tile = one shard's words × a block of combinations). With one
// effective thread the calling thread walks every tile inline with no
// scratch allocation; otherwise the tiles run on a persistent
// parallel::TaskPool with per-slot Chase-Lev deques and lazy binary
// splitting, so skewed tiles (mixed combination sizes, warm/cold leaves,
// tail shards) rebalance automatically and no per-batch thread spawn is
// paid.
//
// Per-combination counts are sums of per-tile popcounts accumulated into
// per-slot buffers reduced in slot order, and bitmap outputs write disjoint
// word ranges — so results are exact and byte-identical for every shard
// width, thread count, and steal order. The tests hold the batch layer to
// an independent oracle: CombinationProber::BitsInto followed by
// KeyBitmap::Count, per combination (tests/probe_oracle.h).
//
// All probes are answered from the per-preference bitmaps the shared
// CombinationProber caches; the only DB work on this path is the bulk leaf
// prefetch (CombinationProber::PrefetchAll) before the first batch.
//
// Delta maintenance: the member bitmaps come from the CombinationProber,
// which revalidates them against the engine epoch, so batches issued after
// a ProbeEngine::Refresh() see the refreshed state. When the engine carries
// tombstoned keys, Compile() appends the engine's live mask to every
// combination as one more AND group (and the extension/pair kernels AND it
// in directly), keeping deleted keys out of every count and bitmap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypre/combination.h"
#include "hypre/key_bitmap.h"

namespace hypre {
namespace parallel {
class TaskPool;
}  // namespace parallel

namespace core {

/// \brief Knobs for the batch probe layer, threaded through the combination
/// algorithms.
struct ProbeOptions {
  /// 64-bit words per shard. Bounds the cache working set of one blocked
  /// pass: one shard touches shard_words * 8 bytes of every distinct leaf
  /// bitmap in the frontier. The default (512 words = 4 KiB per bitmap per
  /// shard) keeps ~50 concurrent leaves inside a 256 KiB L2 while keeping
  /// the per-shard loop overhead small.
  size_t shard_words = 512;
  /// Worker threads for tile evaluation. 1 (the default) evaluates inline
  /// on the calling thread; 0 = AUTO-DETECT: use
  /// std::thread::hardware_concurrency(), clamped to the tile count so no
  /// slot starts idle (in particular never more threads than shards when
  /// the frontier fits one block). Values > 1 are likewise clamped.
  size_t num_threads = 1;
  /// Work-stealing pool to run on. nullptr = the process-wide
  /// parallel::TaskPool::Shared(). api::Session injects its own session
  /// pool here. Not owned; must outlive the batch prober's calls.
  parallel::TaskPool* pool = nullptr;
};

/// \brief Evaluates frontiers of combinations in blocked, optionally
/// multi-threaded passes over the shared CombinationProber's cached
/// per-preference bitmaps. `prober` must outlive the batch prober.
class BatchProber {
 public:
  explicit BatchProber(const CombinationProber* prober,
                       ProbeOptions options = ProbeOptions{})
      : prober_(prober), options_(options) {}

  /// \brief Matching-key counts for every combination in `frontier`, in
  /// order; counts[i] is the popcount of CombinationProber::BitsInto on
  /// frontier[i] (0 for the empty combination).
  Result<std::vector<size_t>> CountBatch(
      const std::vector<Combination>& frontier) const;

  /// \brief Counts of `base AND preference[candidates[k]]` for each
  /// candidate — the PEPS expansion batch: all extensions of a popped DFS
  /// frame are verified in one blocked pass. `base` must be universe-sized.
  Result<std::vector<size_t>> CountExtensions(
      const KeyBitmap& base, const std::vector<size_t>& candidates) const;

  /// \brief AndCount for every preference pair in `pairs` — the PEPS pair
  /// table as one blocked upper-triangle pass.
  Result<std::vector<size_t>> CountPairs(
      const std::vector<std::pair<size_t, size_t>>& pairs) const;

  /// \brief Evaluates every combination into out->at(i), identical to
  /// CombinationProber::BitsInto on each element (including the empty-
  /// combination degenerate case). `out` is resized to the frontier.
  Status EvalBatch(const std::vector<Combination>& frontier,
                   std::vector<KeyBitmap>* out) const;

  const ProbeOptions& options() const { return options_; }
  const CombinationProber& prober() const { return *prober_; }

 private:
  // A frontier compiled to flat word-pointer arrays the shard kernels can
  // walk without touching Combination or Result machinery.
  struct CompiledFrontier {
    struct Group {
      uint32_t begin = 0;  // [begin, end) into member_words
      uint32_t end = 0;
    };
    struct Item {
      uint32_t begin = 0;  // [begin, end) into groups
      uint32_t end = 0;
    };
    std::vector<const uint64_t*> member_words;
    std::vector<Group> groups;
    std::vector<Item> items;
    size_t num_words = 0;
  };

  // The shard × frontier-block tiling of one batch. Tile t covers shard
  // t / num_item_tiles (its word range) × item block t % num_item_tiles, so
  // consecutive tiles share a shard and a stolen run stays cache-hot on the
  // same leaf words.
  struct TileGrid {
    size_t shard_words = 1;
    size_t num_shards = 0;
    size_t num_words = 0;
    size_t item_tile = 1;
    size_t num_item_tiles = 0;
    size_t num_items = 0;
    size_t num_tiles() const { return num_shards * num_item_tiles; }
  };

  Result<CompiledFrontier> Compile(
      const std::vector<Combination>& frontier) const;
  /// Resolves options_.num_threads (0 = auto) and clamps it so every slot
  /// can start with at least one tile.
  size_t PlanSlots(size_t num_words, size_t num_items) const;
  TileGrid MakeGrid(size_t num_words, size_t num_items, size_t slots) const;
  /// The pool a parallel run uses (options_.pool or the shared pool); null
  /// when the run is inline.
  parallel::TaskPool* SchedulePool(size_t slots) const;
  /// Runs `kernel(word_begin, word_end, item_begin, item_end, slot)` over
  /// every tile of `grid`, inline or on the pool. Slot ids are dense and
  /// < slots; each tile runs exactly once.
  template <typename Kernel>
  void ForEachTile(const TileGrid& grid, size_t slots, Kernel&& kernel) const;

  const CombinationProber* prober_;
  ProbeOptions options_;
  // Reused scratch for the single-threaded fast paths (CountExtensions runs
  // once per popped PEPS DFS frame), so hot batches do no per-call heap
  // allocation beyond the returned counts.
  mutable std::vector<const uint64_t*> ptr_scratch_;
  mutable std::vector<uint64_t> group_word_scratch_;
  mutable std::vector<uint64_t> acc_word_scratch_;
};

}  // namespace core
}  // namespace hypre
