// CombinationProber: the one probe handle the combination algorithms take.
//
// A prober is built per algorithm run over a fixed preference list and a
// ProbeEngine. It holds a handle to each preference's key bitmap (once per
// engine epoch) and answers two kinds of question from those bitmaps,
// never from the database:
//
//   BitsInto(combination)        one combination's key bitmap (OR within
//                                groups, AND across groups, live mask)
//   BitsInto(members)            the AND of a member list, live mask — for
//                                PEPS expansion bases and Top-K walks
//   CountBatch / CountExtensions /
//   CountPairs(frontier)         matching-key COUNTS for a whole frontier
//                                in one blocked pass — every count an
//                                algorithm records goes through these
//
// Probing a frontier of F combinations one at a time would re-stream every
// referenced leaf bitmap F times. The count methods evaluate the whole
// frontier in one BLOCKED pass instead: the universe's bitmap words are
// partitioned into fixed-width shards, and for each shard every pending
// combination's OR-within-group / AND-across-groups words and popcounts are
// computed while that shard's leaf words are cache-resident. The inner word
// loops route through parallel::ActiveWordKernels() (AVX2 when the build
// compiles it in, the portable scalar kernels under -DHYPRE_SIMD=OFF).
//
// Every count method runs its kernel through one private loop over the
// shards, inline on the calling thread, adding each shard's popcounts into
// the per-combination counts — so counts are exact and identical for every
// shard width. A request's batches stay on its own thread: the server's
// parallelism is its concurrent requests. Compiled operands and the shard
// scratch live in reused members, so a batch allocates nothing per call
// beyond the returned counts. The tests hold the count methods to an
// independent oracle: BitsInto followed by KeyBitmap::Count, per
// combination (tests/probe_oracle.h).
//
// The only DB work on this path is the bulk leaf prefetch (PrefetchAll)
// before the first probe.
//
// Leaf borrowing: a single-leaf preference's bitmap is the engine's cached
// leaf itself (ProbeEngine::UnmaskedLeafBitmap), not a copy; only compound
// preferences (AND/OR/NOT) are evaluated into prober-owned bitmaps. The
// borrow is safe because leaf entries are node-stable and erased only by a
// refresh at pin count zero, which moves the epoch.
//
// Delta maintenance: the prober revalidates its per-preference handles
// against ProbeEngine::epoch() on every access, so after a Refresh() the
// next probe transparently re-borrows the patched leaf cache (no DB work
// unless the refresh compacted). Borrowed leaves may carry stale bits at
// tombstoned ids, and the prober is the ONE place that masks them: when the
// engine carries tombstoned keys, BitsInto ANDs the engine's live mask into
// its result, Compile() appends the same mask to every combination as one
// more AND group, and the two-operand AND kernel behind
// CountExtensions/CountPairs ANDs it in directly, keeping deleted keys out
// of every probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypre/combination.h"
#include "hypre/key_bitmap.h"
#include "hypre/probe_engine.h"

namespace hypre {
namespace core {

/// \brief Bitmap-backed prober over a fixed preference list (see the file
/// comment). Not thread-safe (probes share reused scratch); every algorithm
/// run builds its own.
class CombinationProber {
 public:
  /// 64-bit words per shard. Bounds the cache working set of one blocked
  /// pass: one shard touches kShardWords * 8 bytes of every distinct leaf
  /// bitmap in the frontier. 512 words = 4 KiB per bitmap per shard keeps
  /// ~50 concurrent leaves inside a 256 KiB L2 while keeping the per-shard
  /// loop overhead small.
  static constexpr size_t kShardWords = 512;

  /// `combiner` and `engine` must outlive the prober. `shard_words` (> 0)
  /// is the blocked-pass width; counts do not depend on it.
  CombinationProber(const Combiner* combiner, const ProbeEngine* engine,
                    size_t shard_words = kShardWords)
      : combiner_(combiner), engine_(engine), shard_words_(shard_words) {}

  /// \brief Bulk-prefetches every preference's leaf bitmaps through
  /// ProbeEngine::PrefetchLeaves (ONE pass over the executor instead of one
  /// query per leaf) and resolves every per-preference bitmap handle from
  /// the warmed cache. Idempotent; call before an algorithm starts probing.
  Status PrefetchAll() const;

  /// \brief Key bitmap of one preference (the combination leaf handle).
  /// UNMASKED: a borrowed leaf may carry stale bits at tombstoned ids, so
  /// a caller deriving counts or keys from it must start from a masked
  /// bitmap (BitsInto) or AND the engine's live mask itself. Valid until
  /// the engine epoch moves.
  Result<const KeyBitmap*> PreferenceBits(size_t index) const;

  /// \brief Evaluates the combination (AND of OR-groups) into `out`,
  /// reusing its storage — the per-combination path for hot loops (PEPS
  /// expansion bases, Top-K walks) that would otherwise allocate a bitmap
  /// per probe. Same group-level semantics as engine-evaluating
  /// Combiner::BuildExpr, without building and walking an expression tree.
  /// The empty combination yields a default (0-bit) bitmap.
  Status BitsInto(const Combination& combination, KeyBitmap* out) const;

  /// \brief The AND of the listed preferences' bitmaps, live-masked, into
  /// `out` — BitsInto for a combination of single-member groups, without
  /// building one. An empty list yields a default (0-bit) bitmap.
  Status BitsInto(std::span<const size_t> members, KeyBitmap* out) const;

  /// \brief Matching-key counts for every combination in `frontier`, in
  /// order; counts[i] is the popcount of BitsInto on frontier[i] (0 for the
  /// empty combination).
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

  const ProbeEngine& engine() const { return *engine_; }

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

  /// ANDs the live mask into `out` when the engine has tombstones.
  Status MaskTombstones(KeyBitmap* out) const;
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

  const Combiner* combiner_;
  const ProbeEngine* engine_;
  size_t shard_words_;
  // Lazily resolved per-preference bitmaps, indexed like the list: borrowed
  // engine leaves, or owned_bits_ entries for compound preferences. Both
  // are dropped wholesale when the engine epoch moves past cached_epoch_.
  mutable std::vector<const KeyBitmap*> member_bits_;
  mutable std::vector<std::unique_ptr<KeyBitmap>> owned_bits_;
  mutable uint64_t cached_epoch_ = 0;
  // Reused OR-group accumulator for BitsInto.
  mutable KeyBitmap group_scratch_;
  // Reused per-call state of the count methods (CountExtensions runs once
  // per popped PEPS DFS frame, CountBatch once per exhaustive generation),
  // so a batch does no heap allocation beyond the returned counts once
  // these have grown.
  mutable CompiledFrontier plan_;
  mutable std::vector<std::pair<const uint64_t*, const uint64_t*>>
      and_operands_;
  // Two shard-wide word buffers for CountBatch: the OR-group fold and the
  // AND accumulator.
  mutable std::vector<uint64_t> shard_scratch_;
};

}  // namespace core
}  // namespace hypre
