// Fagin's Threshold Algorithm (TA) — the Top-K baseline (dissertation
// §7.6.1, Definition 20).
//
// TA consumes m per-attribute graded lists (here: a venue list and an
// author list whose per-paper grades are f_and-aggregated over the paper's
// authors), does sorted access in parallel with random access to the other
// lists, and halts once k objects are at least as good as the threshold
// t(x_1..x_m) of the last sorted-access grades. The aggregation function is
// the same f_and used by HYPRE, with a missing grade contributing 0
// (f_and(p, 0) = p), matching the dissertation's list-merging step.
//
// TA sees only the ORIGINAL quantitative preferences — it has no access to
// graph-derived intensities — which is exactly why PEPS covers more tuples
// in Figures 37/38.
//
// Objects are the probe engine's dense key ids, not key Values: each list
// holds a per-id grade array (random access and the seen-set are array
// lookups), and ties in sorted access and in the final ranking are broken
// by ProbeEngine::KeyRank, which orders ids exactly as the Value total
// order orders their keys. A key Value is built only for the tuples TA
// returns.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypre/algorithms/common.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/ranking.h"

namespace hypre {
namespace core {

/// \brief One per-attribute list over dense key ids: (id, grade) pairs
/// supporting sorted access (descending by grade, ties by key rank) and
/// random access by id.
///
/// Sorted access is materialized lazily: Finalize heapifies the members in
/// O(n) and each deeper `at` pops the heap, so a TA run that halts at depth
/// d pays O(n + d log n) instead of a full sort. The lazy state makes
/// concurrent sorted access on one list unsafe; TA builds its lists per
/// request.
class GradedList {
 public:
  /// \param num_ids size of the id space (a hint: AddGrade grows past it)
  explicit GradedList(std::string name = "", size_t num_ids = 0)
      : name_(std::move(name)), grades_(num_ids), present_(num_ids) {}

  /// \brief Adds or f_and-merges a grade for `id` (merging implements the
  /// per-paper aggregation over multiple matching preferences).
  void AddGrade(uint32_t id, double grade);

  /// \brief Orders the list for sorted access: grade descending, then
  /// `engine.KeyRank(id)` ascending. Must be called before TopK.
  void Finalize(const ProbeEngine& engine);

  /// \brief Members available to sorted access (0 until Finalize).
  size_t size() const { return sorted_.size() + pending_.size(); }
  /// \brief Sorted access: the (id, grade) pair at `depth` < size().
  std::pair<uint32_t, double> at(size_t depth) const {
    if (depth >= sorted_.size()) SortThrough(depth);
    uint32_t id = sorted_[depth];
    return {id, grades_[id]};
  }

  /// \brief Random access: the grade of `id`, if present.
  std::optional<double> Grade(uint32_t id) const {
    if (id >= present_.size() || !present_[id]) return std::nullopt;
    return grades_[id];
  }

  /// \brief One past the largest id the list can hold.
  size_t num_ids() const { return grades_.size(); }
  const std::string& name() const { return name_; }

 private:
  /// A member awaiting sorted access, keyed for the heap.
  struct Pending {
    double grade;
    uint32_t rank;
    uint32_t id;
  };
  /// Heap order: true when `a` is read after `b` (lower grade, or the
  /// same grade and a later key).
  static bool ReadAfter(const Pending& a, const Pending& b);
  /// Pops the heap until the sorted prefix reaches `depth`.
  void SortThrough(size_t depth) const;

  std::string name_;
  std::vector<double> grades_;     // by id; meaningful where present_
  std::vector<uint8_t> present_;   // by id
  std::vector<uint32_t> members_;  // ids, in insertion order
  // Sorted-access order: the materialized prefix, then a heap of the rest.
  mutable std::vector<uint32_t> sorted_;
  mutable std::vector<Pending> pending_;
};

/// \brief Runs TA over lists finalized against `engine`; returns
/// min(k, #objects) tuples descending by aggregate grade, ties by key
/// (k = 0 returns every object). `sorted_accesses`, if non-null, receives
/// the number of sorted-access rounds performed (early-termination
/// observability). `max_depth` > 0 caps the sorted-access depth — the probe
/// budget of the unified API: when TA would have descended further,
/// `*budget_capped` (if non-null) is set and the ranking reflects only the
/// rounds performed. An empty `lists` fails with InvalidArgument.
Result<std::vector<RankedTuple>> ThresholdAlgorithmTopK(
    const ProbeEngine& engine, const std::vector<GradedList>& lists,
    size_t k, size_t* sorted_accesses = nullptr, size_t max_depth = 0,
    bool* budget_capped = nullptr);

/// \brief Builds TA's finalized graded lists from preference atoms, probing
/// each atom's matching ids through the engine's bitmap handles. Atoms are
/// grouped into one list per `list_key(atom)` (defaults to the atom's
/// attribute key); each atom grades its matching ids with its intensity,
/// f_and-merged per id within a list.
Result<std::vector<GradedList>> BuildGradedLists(
    const ProbeEngine& engine, std::span<const PreferenceAtom> atoms,
    const std::function<std::string(const PreferenceAtom&)>& list_key =
        nullptr);

/// \brief TA over `preferences` as one enumeration run — the algorithm
/// core the "ta" row of api::kAlgorithms calls. The control's budget
/// charges one probe per atom for the graded lists (only the admitted
/// prefix of the atoms is graded) and one per sorted-access round, so the
/// remaining budget caps the descent depth; `*control.truncated` is raised
/// when either charge did not fit; the checkpoint is asked at the atom
/// charge only. An empty preference list ranks nothing.
Result<std::vector<RankedTuple>> ThresholdAlgorithm(
    const std::vector<PreferenceAtom>& preferences, const ProbeEngine& engine,
    size_t k, const EnumerationControl& control = EnumerationControl{});

}  // namespace core
}  // namespace hypre
