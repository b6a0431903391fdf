#include "hypre/batch_prober.h"

#include <algorithm>

#include "hypre/parallel/word_kernels.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"

namespace hypre {
namespace core {

namespace {

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

Status CombinationProber::PrefetchAll() const {
  const auto& prefs = combiner_->preferences();
  std::vector<reldb::ExprPtr> exprs;
  exprs.reserve(prefs.size());
  for (const auto& pref : prefs) exprs.push_back(pref.expr);
  HYPRE_RETURN_NOT_OK(engine_->PrefetchLeaves(exprs));
  // Resolving the per-preference handles now does no DB work.
  for (size_t i = 0; i < prefs.size(); ++i) {
    HYPRE_RETURN_NOT_OK(PreferenceBits(i).status());
  }
  return Status::OK();
}

Result<const KeyBitmap*> CombinationProber::PreferenceBits(
    size_t index) const {
  if (cached_epoch_ != engine_->epoch()) {
    // The engine refreshed under us: every cached handle names a dead
    // epoch's bitmap. Drop them all; re-materialization below borrows the
    // patched leaf cache again (no DB work unless the refresh compacted).
    member_bits_.clear();
    owned_bits_.clear();
    cached_epoch_ = engine_->epoch();
  }
  if (member_bits_.size() < combiner_->preferences().size()) {
    member_bits_.resize(combiner_->preferences().size(), nullptr);
  }
  if (member_bits_[index] == nullptr) {
    const reldb::ExprPtr& expr = combiner_->preferences()[index].expr;
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                           engine_->UnmaskedLeafBitmap(expr));
    if (bits == nullptr) {
      // Compound preference: evaluated once per epoch into storage the
      // prober owns.
      HYPRE_ASSIGN_OR_RETURN(KeyBitmap evaluated, engine_->EvalBitmap(expr));
      owned_bits_.push_back(std::make_unique<KeyBitmap>(std::move(evaluated)));
      bits = owned_bits_.back().get();
    }
    member_bits_[index] = bits;
  }
  return member_bits_[index];
}

Status CombinationProber::MaskTombstones(KeyBitmap* out) const {
  if (engine_->has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live, engine_->UniverseBitmap());
    out->AndWith(*live);
  }
  return Status::OK();
}

Status CombinationProber::BitsInto(const Combination& combination,
                                   KeyBitmap* out) const {
  bool first = true;
  for (const auto& group : combination.groups) {
    const KeyBitmap* group_bits;
    if (group.members.size() == 1) {
      HYPRE_ASSIGN_OR_RETURN(group_bits, PreferenceBits(group.members[0]));
    } else {
      HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits0,
                             PreferenceBits(group.members[0]));
      group_scratch_ = *bits0;
      for (size_t pos = 1; pos < group.members.size(); ++pos) {
        HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                               PreferenceBits(group.members[pos]));
        group_scratch_.OrWith(*bits);
      }
      group_bits = &group_scratch_;
    }
    if (first) {
      *out = *group_bits;
      first = false;
    } else {
      out->AndWith(*group_bits);
      if (out->None()) break;  // short-circuit: empty intersection
    }
  }
  if (first) {
    *out = KeyBitmap();
    return Status::OK();
  }
  return MaskTombstones(out);
}

Status CombinationProber::BitsInto(std::span<const size_t> members,
                                   KeyBitmap* out) const {
  if (members.empty()) {
    *out = KeyBitmap();
    return Status::OK();
  }
  HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* first, PreferenceBits(members[0]));
  *out = *first;
  for (size_t pos = 1; pos < members.size(); ++pos) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits,
                           PreferenceBits(members[pos]));
    out->AndWith(*bits);
    if (out->None()) break;  // short-circuit: empty intersection
  }
  return MaskTombstones(out);
}

Status CombinationProber::Compile(
    const std::vector<Combination>& frontier) const {
  plan_.member_words.clear();
  plan_.groups.clear();
  plan_.items.clear();
  plan_.num_words = 0;
  // With tombstoned keys in the engine, the live mask joins every non-empty
  // combination as one more single-member AND group, so the shard kernels
  // mask deleted keys out with zero extra code paths — the same mask
  // BitsInto ANDs. Borrowed leaves carry stale bits at tombstoned ids, so
  // this group is what keeps them out of CountBatch.
  const uint64_t* mask_words = nullptr;
  if (engine_->has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live, engine_->UniverseBitmap());
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
        HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits, PreferenceBits(member));
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
std::vector<size_t> CombinationProber::RunShards(size_t num_words,
                                                 size_t num_items,
                                                 Kernel&& kernel) const {
  std::vector<size_t> counts(num_items, 0);
  size_t num_shards = 0;
  for (size_t w0 = 0; w0 < num_words; w0 += shard_words_, ++num_shards) {
    kernel(w0, std::min(num_words, w0 + shard_words_), counts.data());
  }
  engine_->NoteBatchAnswered(num_items, num_shards);
  HYPRE_TELEMETRY_STMT(RecordBatchShape(num_items, num_shards));
  return counts;
}

Result<std::vector<size_t>> CombinationProber::CountBatch(
    const std::vector<Combination>& frontier) const {
  telemetry::TraceSpan span("prober", "count_batch");
  if (frontier.empty()) return std::vector<size_t>{};
  HYPRE_RETURN_NOT_OK(Compile(frontier));
  const CompiledFrontier& plan = plan_;
  const parallel::WordKernels& kn = parallel::ActiveWordKernels();
  // One shard-wide OR-group buffer and one AND accumulator; a shard never
  // spans more than the bitmap, so neither outgrows it.
  size_t buffer_words = std::min(shard_words_, plan.num_words);
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

Result<std::vector<size_t>> CombinationProber::CountAnds(
    size_t num_words) const {
  // The live mask as a third operand: borrowed leaves carry stale bits at
  // tombstoned ids, and CountPairs ANDs two of them.
  const uint64_t* mask = nullptr;
  if (engine_->has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live, engine_->UniverseBitmap());
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

Result<std::vector<size_t>> CombinationProber::CountExtensions(
    const KeyBitmap& base, const std::vector<size_t>& candidates) const {
  telemetry::TraceSpan span("prober", "count_extensions");
  if (candidates.empty()) return std::vector<size_t>{};
  and_operands_.clear();
  for (size_t candidate : candidates) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* bits, PreferenceBits(candidate));
    and_operands_.emplace_back(base.word_data(), bits->word_data());
  }
  return CountAnds(base.num_words());
}

Result<std::vector<size_t>> CombinationProber::CountPairs(
    const std::vector<std::pair<size_t, size_t>>& pairs) const {
  telemetry::TraceSpan span("prober", "count_pairs");
  if (pairs.empty()) return std::vector<size_t>{};
  and_operands_.clear();
  size_t num_words = 0;
  for (const auto& [i, j] : pairs) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* a, PreferenceBits(i));
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* b, PreferenceBits(j));
    and_operands_.emplace_back(a->word_data(), b->word_data());
    num_words = a->num_words();
  }
  return CountAnds(num_words);
}

}  // namespace core
}  // namespace hypre
