// PEPS — Practical and Efficient Preference Selection (dissertation §5.5,
// Algorithm 6). The dissertation's Top-K contribution.
//
// PEPS precomputes the table of all *applicable* two-preference AND
// combinations (pairs that return at least one tuple), each with its
// combined intensity and tuple count; the table is the pruning oracle for
// multi-predicate expansion, because AND is monotone:
//     a combination can only be applicable if every member pair is.
// Expansion then enumerates applicable AND combinations in a
// set-enumeration tree seeded from the pair table, verifying candidates
// with (memoized) count probes, and returns them ordered by combined
// intensity. Two modes:
//  * Complete    — seeds from every applicable pair: no applicable
//    combination is missed.
//  * Approximate — only seeds whose pair intensity already exceeds the best
//    single-preference intensity survive (the Proposition 6 bound applied at
//    its cheapest point), trading possible misses for fewer probes.
//
// TopK() walks the ordered combinations (plus the single preferences), so
// each tuple receives the intensity of the best applicable combination it
// matches.
//
// Every combination PEPS visits is a pure AND of single preferences, so the
// DFS, the pair table and the Top-K walk work on flat member lists in one
// arena and carry the combined intensity as its complement product
// prod(1 - v_k) in member order — the same fold Combiner::ComputeIntensity
// does over single-member groups, so intensities are bit-identical. A
// CombinationRecord (with its Combination and SQL text) is built only for
// the records GenerateOrder returns; TopK builds none.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/batch_prober.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/ranking.h"

namespace hypre {
namespace core {

enum class PepsMode { kComplete, kApproximate };

/// \brief One row of the precomputed pair table.
struct PairEntry {
  size_t i = 0;
  size_t j = 0;
  double intensity = 0.0;   // 1 - complement
  double complement = 1.0;  // (1 - v_i) * (1 - v_j)
  size_t num_tuples = 0;
};

class Peps {
 public:
  /// `preferences` must be sorted descending by intensity and must outlive
  /// this object; `engine` likewise. All probes run through one
  /// CombinationProber over the engine: the preference leaf bitmaps are
  /// bulk-prefetched in one executor pass, the pair table is one batched
  /// upper-triangle pass, and DFS expansion batches all candidate
  /// extensions of a popped frame into one blocked shard pass.
  Peps(const std::vector<PreferenceAtom>* preferences,
       const ProbeEngine* engine);

  // prober_ points at combiner_, so default copy/move would leave the new
  // object probing through the old one's (possibly destroyed) combiner.
  Peps(const Peps&) = delete;
  Peps& operator=(const Peps&) = delete;

  /// \brief Builds the applicable-pair table (one probe per AND pair).
  /// Idempotent; TopK/GenerateOrder call it lazily. A probe budget admits a
  /// generation-order prefix of the upper triangle; a truncated table seeds
  /// fewer expansions, and the truncation flag records that the run was
  /// incomplete.
  Status PrecomputePairs(const EnumerationControl& control =
                             EnumerationControl{});

  /// \brief The applicable pairs, descending by combined intensity.
  const std::vector<PairEntry>& pairs() const { return pairs_; }

  /// \brief All applicable AND combinations of >= 2 preferences reachable in
  /// the given mode, descending by combined intensity. The control's budget
  /// charges one probe per pair-table entry and per expansion candidate
  /// (the DFS stops — truncated — when it runs dry). The "peps" row of
  /// api::kAlgorithms calls this (k == 0) or TopK (k > 0). Members of each
  /// record's combination are one single-member AND group per preference,
  /// ascending. Ties in intensity keep DFS pop order.
  Result<std::vector<CombinationRecord>> GenerateOrder(
      PepsMode mode,
      const EnumerationControl& control = EnumerationControl{});

  /// \brief Top-K tuples: each tuple is ranked by the best applicable
  /// combination (or single preference) that matches it, descending. The
  /// control's budget applies to the underlying GenerateOrder (the record
  /// walk itself does bitmap algebra only and is not charged), so TopK and
  /// GenerateOrder spend and truncate alike.
  Result<std::vector<RankedTuple>> TopK(
      size_t k, PepsMode mode,
      const EnumerationControl& control = EnumerationControl{});

  /// \brief Number of multi-predicate candidate probes issued by the last
  /// GenerateOrder call (observability for the Fig. 39/40 analysis).
  size_t num_expansion_probes() const { return num_expansion_probes_; }

 private:
  const std::vector<PreferenceAtom>* preferences_;
  Combiner combiner_;
  CombinationProber prober_;
  bool pairs_ready_ = false;
  std::vector<PairEntry> pairs_;
  // pair applicability matrix, row-major over preference indices
  std::vector<uint8_t> pair_applicable_;
  size_t num_expansion_probes_ = 0;

  /// One ranked combination: `length` ascending preference indices at
  /// `offset` in members_, its combined intensity and tuple count.
  struct OrderEntry {
    double intensity = 0.0;
    size_t offset = 0;
    size_t length = 0;
    size_t num_tuples = 0;
  };
  // The member arena every DFS frame and OrderEntry points into; it only
  // grows during a run, so offsets stay valid until the next run.
  std::vector<size_t> members_;
  // The last run's combinations, in DFS pop order until SortOrder.
  std::vector<OrderEntry> order_;

  bool PairApplicable(size_t a, size_t b) const;
  std::span<const size_t> Members(size_t offset, size_t length) const {
    return {members_.data() + offset, length};
  }
  /// Runs the set-enumeration DFS, leaving every popped combination in
  /// order_ in pop order.
  Status Expand(PepsMode mode, const EnumerationControl& control);
  /// Stable-sorts order_ descending by intensity (ties keep their order).
  void SortOrder();
};

}  // namespace core
}  // namespace hypre
