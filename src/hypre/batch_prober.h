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
// Every entry point runs its kernel through one private loop over the
// shards, inline on the calling thread, adding each shard's popcounts into
// the per-combination counts — so counts are exact and identical for every
// shard width. A request's batches stay on its own thread: the server's
// parallelism is its concurrent requests. Compiled operands and the shard
// scratch live in reused members, so a batch allocates nothing per call
// beyond the returned counts. The tests hold the batch layer to an
// independent oracle: CombinationProber::BitsInto followed by
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
};

/// \brief Evaluates frontiers of combinations in blocked passes over the
/// shared CombinationProber's cached per-preference bitmaps. `prober` must
/// outlive the batch prober. Not thread-safe (calls share reused scratch);
/// every algorithm run builds its own.
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

  /// Compiles `frontier` into plan_, reusing its storage.
  Status Compile(const std::vector<Combination>& frontier) const;
  /// popcount(a & b) — and the live mask when the engine has tombstones —
  /// for every operand pair in and_operands_, each `num_words` words long.
  /// The one kernel behind CountExtensions and CountPairs.
  Result<std::vector<size_t>> CountAnds(size_t num_words) const;
  /// Runs one batch of `num_items` probes over `num_words` words and
  /// returns its counts: calls `kernel(w0, w1, counts)` once per shard
  /// [w0, w1), in order, then records the batch stats. The kernel adds the
  /// shard's popcount of every item into counts[item].
  template <typename Kernel>
  std::vector<size_t> RunShards(size_t num_words, size_t num_items,
                                Kernel&& kernel) const;

  const CombinationProber* prober_;
  ProbeOptions options_;
  // Reused per-call state (CountExtensions runs once per popped PEPS DFS
  // frame, CountBatch once per exhaustive generation), so a batch does no
  // heap allocation beyond the returned counts once these have grown.
  mutable CompiledFrontier plan_;
  mutable std::vector<std::pair<const uint64_t*, const uint64_t*>>
      and_operands_;
  // Two shard-wide word buffers for CountBatch: the OR-group fold and the
  // AND accumulator.
  mutable std::vector<uint64_t> shard_scratch_;
};

}  // namespace core
}  // namespace hypre
