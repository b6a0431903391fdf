#include "hypre/algorithms/peps.h"

#include <algorithm>
#include <unordered_set>

namespace hypre {
namespace core {

Peps::Peps(const std::vector<PreferenceAtom>* preferences,
           const ProbeEngine* engine)
    : preferences_(preferences),
      combiner_(preferences),
      prober_(&combiner_, engine) {}

bool Peps::PairApplicable(size_t a, size_t b) const {
  size_t n = preferences_->size();
  return pair_applicable_[a * n + b] != 0;
}

Status Peps::PrecomputePairs(const EnumerationControl& control) {
  if (pairs_ready_) return Status::OK();
  const auto& prefs = *preferences_;
  size_t n = prefs.size();
  pairs_.clear();
  pair_applicable_.assign(n * n, 0);

  auto record_pair = [&](size_t i, size_t j, size_t count) {
    if (count == 0) return;
    PairEntry entry;
    entry.i = i;
    entry.j = j;
    entry.complement = (1.0 - prefs[i].intensity) * (1.0 - prefs[j].intensity);
    entry.intensity = 1.0 - entry.complement;
    entry.num_tuples = count;
    pairs_.push_back(entry);
    pair_applicable_[i * n + j] = 1;
    pair_applicable_[j * n + i] = 1;
  };

  // Bulk leaf prefetch (one executor pass), then the whole upper triangle
  // as one blocked shard pass. The budget admits a generation-order prefix
  // of the triangle.
  HYPRE_RETURN_NOT_OK(prober_.PrefetchAll());
  std::vector<std::pair<size_t, size_t>> pair_list;
  pair_list.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pair_list.emplace_back(i, j);
  }
  pair_list.resize(control.Admit(pair_list.size()));
  if (!pair_list.empty()) {
    HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                           prober_.CountPairs(pair_list));
    for (size_t p = 0; p < pair_list.size(); ++p) {
      record_pair(pair_list[p].first, pair_list[p].second, counts[p]);
    }
  }
  std::stable_sort(pairs_.begin(), pairs_.end(),
                   [](const PairEntry& a, const PairEntry& b) {
                     return a.intensity > b.intensity;
                   });
  pairs_ready_ = true;
  return Status::OK();
}

Status Peps::Expand(PepsMode mode, const EnumerationControl& control) {
  HYPRE_RETURN_NOT_OK(PrecomputePairs(control));
  const auto& prefs = *preferences_;
  num_expansion_probes_ = 0;
  members_.clear();
  order_.clear();

  // Approximate mode prunes seed pairs that do not already beat the best
  // single preference (§5.5.2): combinations grown from weaker seeds would
  // need many more conjuncts to catch up (Proposition 6), and the
  // approximate variant bets they never will.
  double best_single = prefs.empty() ? 0.0 : prefs.front().intensity;

  // DFS over the set-enumeration tree: members kept ascending. Seeds are
  // the distinct pairs i < j and an extension only appends k > the last
  // member, so every member set has exactly one path in the tree and needs
  // no dedup. An extension index k must form an applicable pair with every
  // current member (the pair-table pruning), and the extended set is then
  // verified with one AND+popcount against the frame's bitmap. A frame is
  // a span of the member arena plus its complement product; the bitmap is
  // rebuilt into a reused scratch buffer on pop, so the DFS does no
  // per-frame heap traffic beyond the arena's growth.
  struct Frame {
    size_t offset = 0;
    size_t length = 0;
    double complement = 1.0;
    size_t num_tuples = 0;
  };

  std::vector<Frame> stack;
  for (const PairEntry& pair : pairs_) {
    if (mode == PepsMode::kApproximate && pair.intensity <= best_single) {
      continue;
    }
    stack.push_back({members_.size(), 2, pair.complement, pair.num_tuples});
    members_.push_back(pair.i);
    members_.push_back(pair.j);
  }

  KeyBitmap frame_bits;
  std::vector<size_t> candidates;  // reused per-frame extension batch
  bool budget_dry = false;
  while (!stack.empty() && !budget_dry) {
    const Frame frame = stack.back();
    stack.pop_back();
    order_.push_back({1.0 - frame.complement, frame.offset, frame.length,
                      frame.num_tuples});

    // Collect every extension k that survives the pair-table pruning; they
    // form the frame's candidate frontier.
    candidates.clear();
    std::span<const size_t> members = Members(frame.offset, frame.length);
    for (size_t k = members.back() + 1; k < prefs.size(); ++k) {
      bool all_pairs_ok = true;
      for (size_t m : members) {
        if (!PairApplicable(m, k)) {
          all_pairs_ok = false;
          break;
        }
      }
      if (all_pairs_ok) candidates.push_back(k);
    }
    // The budget admits a prefix of the frame's candidate frontier BEFORE
    // probing; once dry, the DFS stops after this frame.
    size_t admitted = control.Admit(candidates.size());
    if (admitted < candidates.size()) {
      budget_dry = true;
      candidates.resize(admitted);
    }
    if (candidates.empty()) continue;

    // Verify the whole frontier against the frame's bitmap in one blocked
    // batch pass.
    HYPRE_RETURN_NOT_OK(prober_.BitsInto(members, &frame_bits));
    num_expansion_probes_ += candidates.size();
    HYPRE_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                           prober_.CountExtensions(frame_bits, candidates));
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] == 0) continue;
      size_t k = candidates[c];
      // The child copies the parent's members within the arena: reserve
      // first so the copy's source is not moved by a reallocation.
      size_t offset = members_.size();
      members_.reserve(offset + frame.length + 1);
      for (size_t m = 0; m < frame.length; ++m) {
        members_.push_back(members_[frame.offset + m]);
      }
      members_.push_back(k);
      stack.push_back({offset, frame.length + 1,
                       frame.complement * (1.0 - prefs[k].intensity),
                       counts[c]});
    }
  }
  return Status::OK();
}

void Peps::SortOrder() {
  std::stable_sort(order_.begin(), order_.end(),
                   [](const OrderEntry& a, const OrderEntry& b) {
                     return a.intensity > b.intensity;
                   });
}

Result<std::vector<CombinationRecord>> Peps::GenerateOrder(
    PepsMode mode, const EnumerationControl& control) {
  const auto& prefs = *preferences_;
  HYPRE_RETURN_NOT_OK(Expand(mode, control));
  SortOrder();
  std::vector<CombinationRecord> records(order_.size());
  for (size_t r = 0; r < order_.size(); ++r) {
    const OrderEntry& entry = order_[r];
    CombinationRecord& record = records[r];
    record.num_predicates = entry.length;
    record.num_tuples = entry.num_tuples;
    record.intensity = entry.intensity;
    record.combination.groups.reserve(entry.length);
    for (size_t m : Members(entry.offset, entry.length)) {
      record.combination.groups.push_back({prefs[m].attribute_key, {m}});
    }
    record.predicate_sql = combiner_.ToSql(record.combination);
  }
  return records;
}

Result<std::vector<RankedTuple>> Peps::TopK(
    size_t k, PepsMode mode, const EnumerationControl& control) {
  const auto& prefs = *preferences_;
  HYPRE_RETURN_NOT_OK(Expand(mode, control));

  // Singles participate too: tuples matching exactly one preference are
  // ranked by that preference's own intensity. One stable sort over the
  // pop-order combinations followed by the singles ranks ties exactly as
  // GenerateOrder's sorted records followed by the singles would.
  for (size_t i = 0; i < prefs.size(); ++i) {
    order_.push_back({prefs[i].intensity, members_.size(), 1});
    members_.push_back(i);
  }
  SortOrder();

  std::vector<RankedTuple> result;
  std::unordered_set<reldb::Value, reldb::ValueHash> ranked;
  KeyBitmap bits;
  for (const OrderEntry& entry : order_) {
    if (k > 0 && result.size() >= k) break;
    HYPRE_RETURN_NOT_OK(
        prober_.BitsInto(Members(entry.offset, entry.length), &bits));
    // KeysOf is deterministic: keys come out in Value total order.
    std::vector<reldb::Value> keys = prober_.engine().KeysOf(bits);
    for (const auto& key : keys) {
      if (k > 0 && result.size() >= k) break;
      if (!ranked.insert(key).second) continue;
      result.push_back({key, entry.intensity});
    }
  }
  return result;
}

}  // namespace core
}  // namespace hypre
