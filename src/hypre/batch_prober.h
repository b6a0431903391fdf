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
// Every entry point runs its tiles through one private helper, which plans
// the tiles, runs them, and sums per-tile popcounts through per-slot count
// buffers reduced in slot order — so counts are exact and byte-identical
// for every shard width, thread count, and steal order. The tests hold the
// batch layer to an independent oracle: CombinationProber::BitsInto
// followed by KeyBitmap::Count, per combination (tests/probe_oracle.h).
//
// All probes are answered from the per-preference bitmaps the shared
// CombinationProber caches; the only DB work on this path is the bulk leaf
// prefetch (CombinationProber::PrefetchAll) before the first batch.
//
// Delta maintenance: the member bitmaps come from the CombinationProber,
// which revalidates them against the engine epoch, so batches issued after
// a ProbeEngine::Refresh() see the refreshed state. When the engine carries
// tombstoned keys, Compile() appends the engine's live mask to every
// combination as one more AND group (and the two-operand AND kernel behind
// CountExtensions/CountPairs ANDs it in directly), keeping deleted keys out
// of every count.
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

  Result<CompiledFrontier> Compile(
      const std::vector<Combination>& frontier) const;
  /// popcount(a & b) — and the live mask when the engine has tombstones —
  /// for every operand pair in and_operands_, each `num_words` words long.
  /// The one kernel behind CountExtensions and CountPairs.
  Result<std::vector<size_t>> CountAnds(size_t num_words) const;
  /// Runs one batch of `num_items` probes over `num_words` words and
  /// returns its counts. Plans the shard × item-block tiles, runs
  /// `kernel(w0, w1, i0, i1, counts, scratch)` on every tile exactly once
  /// (inline on the calling thread, or on the pool), sums the per-slot
  /// counts in slot order and records the batch stats. `counts` is indexed
  /// by item; `scratch` holds two shard-wide word buffers private to the
  /// running slot.
  template <typename Kernel>
  std::vector<size_t> RunTiles(size_t num_words, size_t num_items,
                               Kernel&& kernel) const;

  const CombinationProber* prober_;
  ProbeOptions options_;
  // Reused scratch for the inline path (CountExtensions runs once per
  // popped PEPS DFS frame), so a one-slot batch does no per-call heap
  // allocation beyond the returned counts.
  mutable std::vector<std::pair<const uint64_t*, const uint64_t*>>
      and_operands_;
  mutable std::vector<uint64_t> tile_scratch_;
};

}  // namespace core
}  // namespace hypre
