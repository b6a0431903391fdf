#include "hypre/batch_prober.h"

#include <algorithm>

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

Status BatchProber::Compile(const std::vector<Combination>& frontier) const {
  plan_.member_words.clear();
  plan_.groups.clear();
  plan_.items.clear();
  plan_.num_words = 0;
  // With tombstoned keys in the engine, the live mask joins every non-empty
  // combination as one more single-member AND group, so the shard kernels
  // mask deleted keys out with zero extra code paths — the same mask
  // CombinationProber::BitsInto ANDs.
  const uint64_t* mask_words = nullptr;
  if (prober_->engine().has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live,
                           prober_->engine().UniverseBitmap());
    mask_words = live->word_data();
    plan_.num_words = live->num_words();
  }
  for (const auto& combination : frontier) {
    CompiledFrontier::Item item;
    item.begin = static_cast<uint32_t>(plan_.groups.size());
    for (const auto& group : combination.groups) {
      CompiledFrontier::Group g;
      g.begin = static_cast<uint32_t>(plan_.member_words.size());
      for (size_t member : group.members) {
        HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                               prober_->PreferenceBits(member));
        plan_.member_words.push_back(bits->word_data());
        plan_.num_words = bits->num_words();
      }
      g.end = static_cast<uint32_t>(plan_.member_words.size());
      plan_.groups.push_back(g);
    }
    if (mask_words != nullptr && !combination.groups.empty()) {
      CompiledFrontier::Group g;
      g.begin = static_cast<uint32_t>(plan_.member_words.size());
      plan_.member_words.push_back(mask_words);
      g.end = static_cast<uint32_t>(plan_.member_words.size());
      plan_.groups.push_back(g);
    }
    item.end = static_cast<uint32_t>(plan_.groups.size());
    plan_.items.push_back(item);
  }
  return Status::OK();
}

template <typename Kernel>
std::vector<size_t> BatchProber::RunShards(size_t num_words, size_t num_items,
                                           Kernel&& kernel) const {
  std::vector<size_t> counts(num_items, 0);
  size_t shard_words = ShardWords(options_);
  size_t num_shards = 0;
  for (size_t w0 = 0; w0 < num_words; w0 += shard_words, ++num_shards) {
    kernel(w0, std::min(num_words, w0 + shard_words), counts.data());
  }
  prober_->engine().NoteBatchAnswered(num_items, num_shards);
  HYPRE_TELEMETRY_STMT(RecordBatchShape(num_items, num_shards));
  return counts;
}

Result<std::vector<size_t>> BatchProber::CountBatch(
    const std::vector<Combination>& frontier) const {
  telemetry::TraceSpan span("prober", "count_batch");
  if (frontier.empty()) return std::vector<size_t>{};
  HYPRE_RETURN_NOT_OK(Compile(frontier));
  const CompiledFrontier& plan = plan_;
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();
  // One shard-wide OR-group buffer and one AND accumulator; a shard never
  // spans more than the bitmap, so neither outgrows it.
  size_t buffer_words = std::min(ShardWords(options_), plan.num_words);
  if (shard_scratch_.size() < 2 * buffer_words) {
    shard_scratch_.resize(2 * buffer_words);
  }
  uint64_t* grp = shard_scratch_.data();
  uint64_t* acc = grp + buffer_words;
  // The kernels stream CONTIGUOUS word runs per member (hoisted pointers)
  // through the word-kernel table.
  return RunShards(plan.num_words, frontier.size(),
                   [&](size_t w0, size_t w1, size_t* counts) {
    size_t len = w1 - w0;
    for (size_t i = 0; i < plan.items.size(); ++i) {
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
  return RunShards(num_words, and_operands_.size(),
                   [&](size_t w0, size_t w1, size_t* counts) {
    size_t len = w1 - w0;
    for (size_t i = 0; i < and_operands_.size(); ++i) {
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
