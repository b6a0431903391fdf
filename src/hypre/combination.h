// Preference combinations: mixed AND/OR clauses with combined intensity.
//
// A combination is structured as AND-of-OR-groups (dissertation §4.6):
// predicates over the same attribute are OR-combined inside one group,
// groups over different attributes are AND-combined. The combined intensity
// follows the same structure: f_or folds within a group (order dependent,
// Proposition 2), f_and across groups (order independent, Proposition 1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/key_bitmap.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "reldb/expr.h"

namespace hypre {
namespace core {

/// \brief A combination of preferences from a fixed preference list; members
/// are indices into that list.
struct Combination {
  struct Group {
    std::string attribute_key;
    std::vector<size_t> members;  // OR-combined, in insertion order
  };
  std::vector<Group> groups;  // AND-combined

  size_t NumPredicates() const;
  bool ContainsAttribute(const std::string& attribute_key) const;
  bool ContainsMember(size_t index) const;
  /// \brief True if at least two groups exist (i.e. the rendered clause
  /// contains an AND).
  bool HasAnd() const { return groups.size() > 1; }
  /// \brief Sorted member list (identity of the combination for dedup).
  std::vector<size_t> SortedMembers() const;
};

/// \brief Builds expressions and intensities for combinations over a fixed
/// preference list. The list must outlive the combiner.
class Combiner {
 public:
  explicit Combiner(const std::vector<PreferenceAtom>* preferences)
      : preferences_(preferences) {}

  const std::vector<PreferenceAtom>& preferences() const {
    return *preferences_;
  }

  /// \brief Combination of a single preference.
  Combination Single(size_t index) const;

  /// \brief AND-extends the combination with a new single-member group.
  Combination AndExtend(const Combination& base, size_t index) const;

  /// \brief OR-inserts the preference into the group with the matching
  /// attribute key (appending a new group if none matches — that only
  /// happens when callers bypass the same-attribute rule deliberately).
  Combination OrInto(const Combination& base, size_t index) const;

  /// \brief Mixed clause over `members` in order: same attribute -> OR into
  /// the existing group, new attribute -> AND a new group (§4.6 rule).
  Combination MixedClause(const std::vector<size_t>& members) const;

  /// \brief AND-of-OR-groups expression for the combination.
  reldb::ExprPtr BuildExpr(const Combination& combination) const;

  /// \brief Combined intensity: f_or fold within groups (insertion order),
  /// f_and across groups.
  double ComputeIntensity(const Combination& combination) const;

  /// \brief SQL text of BuildExpr.
  std::string ToSql(const Combination& combination) const;

 private:
  const std::vector<PreferenceAtom>* preferences_;
};

/// \brief Bitmap-backed prober over a fixed preference list: materializes
/// each preference's key bitmap (lazily, once per engine epoch) through the
/// probe engine, and evaluates single combinations with word-wise OR within
/// groups and AND across groups — the same group-level semantics as
/// engine-evaluating BuildExpr(), without rebuilding and re-walking an
/// expression tree. Combination COUNTS go through BatchProber (see
/// batch_prober.h), which reads the per-preference bitmaps cached here.
///
/// Epoch consistency: the prober revalidates its cached per-preference
/// bitmaps against ProbeEngine::epoch() on every access, so after a
/// Refresh() the next probe transparently re-derives them from the patched
/// leaf cache (pure bitmap algebra, no DB work unless the refresh
/// compacted). When the engine carries tombstoned keys, every probe result
/// additionally ANDs the engine's live mask, keeping deleted keys out even
/// of stale-bit corners.
class CombinationProber {
 public:
  /// `combiner` and `engine` must outlive the prober.
  CombinationProber(const Combiner* combiner, const ProbeEngine* engine)
      : combiner_(combiner), engine_(engine) {}

  /// \brief Bulk-prefetches every preference's leaf bitmaps through
  /// ProbeEngine::PrefetchLeaves (ONE pass over the executor instead of one
  /// query per leaf) and materializes all per-preference bitmaps from the
  /// warmed cache. Idempotent; call before an algorithm starts probing.
  Status PrefetchAll() const;

  /// \brief Key bitmap of one preference (the combination leaf handle).
  Result<const KeyBitmap*> PreferenceBits(size_t index) const;

  /// \brief Evaluates the combination (AND of OR-groups) into `out`,
  /// reusing its storage — the per-combination path for hot loops (PEPS
  /// expansion bases, Top-K walks) that would otherwise allocate a bitmap
  /// per probe. The empty combination yields a default (0-bit) bitmap.
  Status BitsInto(const Combination& combination, KeyBitmap* out) const;

  const ProbeEngine& engine() const { return *engine_; }

 private:
  const Combiner* combiner_;
  const ProbeEngine* engine_;
  // Lazily materialized per-preference bitmaps, indexed like the list;
  // dropped wholesale when the engine epoch moves past cached_epoch_.
  mutable std::vector<std::unique_ptr<KeyBitmap>> member_bits_;
  mutable uint64_t cached_epoch_ = 0;
  // Reused OR-group accumulator for BitsInto.
  mutable KeyBitmap group_scratch_;
};

}  // namespace core
}  // namespace hypre
