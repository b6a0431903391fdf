#include "hypre/algorithms/threshold_algorithm.h"

#include <algorithm>
#include <unordered_map>

#include "hypre/intensity.h"

namespace hypre {
namespace core {

void GradedList::AddGrade(uint32_t id, double grade) {
  if (id >= grades_.size()) {
    grades_.resize(id + 1);
    present_.resize(id + 1);
  }
  if (present_[id]) {
    grades_[id] = CombineAnd(grades_[id], grade);
    return;
  }
  present_[id] = 1;
  grades_[id] = grade;
  members_.push_back(id);
}

bool GradedList::ReadAfter(const Pending& a, const Pending& b) {
  if (a.grade != b.grade) return a.grade < b.grade;
  return a.rank > b.rank;
}

void GradedList::Finalize(const ProbeEngine& engine) {
  sorted_.clear();
  pending_.clear();
  pending_.reserve(members_.size());
  for (uint32_t id : members_) {
    pending_.push_back({grades_[id], engine.KeyRank(id), id});
  }
  std::make_heap(pending_.begin(), pending_.end(), ReadAfter);
}

void GradedList::SortThrough(size_t depth) const {
  while (sorted_.size() <= depth && !pending_.empty()) {
    std::pop_heap(pending_.begin(), pending_.end(), ReadAfter);
    sorted_.push_back(pending_.back().id);
    pending_.pop_back();
  }
}

Result<std::vector<RankedTuple>> ThresholdAlgorithmTopK(
    const ProbeEngine& engine, const std::vector<GradedList>& lists,
    size_t k, size_t* sorted_accesses, size_t max_depth,
    bool* budget_capped) {
  if (lists.empty()) {
    return Status::InvalidArgument("TA requires at least one graded list");
  }
  size_t natural_depth = 0;
  size_t num_ids = 0;
  for (const auto& list : lists) {
    natural_depth = std::max(natural_depth, list.size());
    num_ids = std::max(num_ids, list.num_ids());
  }
  // A depth cap (the API layer's probe budget, in sorted-access rounds)
  // stops the descent early; the capped flag distinguishes that from the
  // threshold halt and natural exhaustion.
  size_t depth_limit = natural_depth;
  if (max_depth > 0) depth_limit = std::min(depth_limit, max_depth);

  // Aggregate grade of an object: f_and over its grades, absent grades
  // contributing 0 (f_and(p, 0) = p).
  auto aggregate = [&](uint32_t id) {
    double acc = 0.0;
    for (const auto& list : lists) {
      auto grade = list.Grade(id);
      if (grade) acc = CombineAnd(acc, *grade);
    }
    return acc;
  };

  // An object TA has seen: its aggregate grade and when it was first seen.
  struct Candidate {
    double intensity;
    uint32_t seq;
    uint32_t id;
  };
  // For k > 0, `top` is a k-bounded heap whose front is the candidate to
  // evict: the lowest intensity, and among ties the one seen last.
  auto better = [](const Candidate& a, const Candidate& b) {
    if (a.intensity != b.intensity) return a.intensity > b.intensity;
    return a.seq < b.seq;
  };
  std::vector<Candidate> top;
  std::vector<uint8_t> seen(num_ids);
  uint32_t seq = 0;

  auto consider = [&](uint32_t id) {
    if (seen[id]) return;
    seen[id] = 1;
    Candidate candidate{aggregate(id), seq++, id};
    if (k == 0 || top.size() < k) {
      top.push_back(candidate);
      if (k > 0) std::push_heap(top.begin(), top.end(), better);
      return;
    }
    // The newcomer is seen last, so it loses every tie with the front.
    if (!better(candidate, top.front())) return;
    std::pop_heap(top.begin(), top.end(), better);
    top.back() = candidate;
    std::push_heap(top.begin(), top.end(), better);
  };

  size_t depth = 0;
  bool halted = false;
  for (; depth < depth_limit; ++depth) {
    // Sorted access in parallel across all lists.
    double threshold = 0.0;
    for (const auto& list : lists) {
      if (depth < list.size()) {
        const auto [id, grade] = list.at(depth);
        consider(id);
        threshold = CombineAnd(threshold, grade);
      }
      // Exhausted lists contribute 0 to the threshold: f_and identity.
    }
    // Halt once k objects reach the threshold (Definition 20, step 2).
    if (k > 0 && top.size() >= k && top.front().intensity >= threshold) {
      ++depth;
      halted = true;
      break;
    }
  }
  if (sorted_accesses != nullptr) *sorted_accesses = depth;
  if (budget_capped != nullptr && !halted && depth_limit < natural_depth) {
    *budget_capped = true;
  }

  // Rank order: intensity descending, ties by key (the rank replaces the
  // no longer needed sequence number).
  for (Candidate& candidate : top) candidate.seq = engine.KeyRank(candidate.id);
  std::sort(top.begin(), top.end(), better);
  std::vector<RankedTuple> result;
  result.reserve(top.size());
  for (const Candidate& candidate : top) {
    result.push_back({engine.KeyAt(candidate.id), candidate.intensity});
  }
  return result;
}

Result<std::vector<GradedList>> BuildGradedLists(
    const ProbeEngine& engine, std::span<const PreferenceAtom> atoms,
    const std::function<std::string(const PreferenceAtom&)>& list_key) {
  std::vector<GradedList> lists;
  if (atoms.empty()) return lists;
  HYPRE_ASSIGN_OR_RETURN(size_t num_ids, engine.UniverseSize());
  std::unordered_map<std::string, size_t> index_of;
  for (const auto& atom : atoms) {
    std::string name = list_key ? list_key(atom) : atom.attribute_key;
    auto [it, inserted] = index_of.emplace(name, lists.size());
    if (inserted) lists.emplace_back(name, num_ids);
    GradedList& list = lists[it->second];
    HYPRE_ASSIGN_OR_RETURN(KeyBitmap bits, engine.EvalBitmap(atom.expr));
    bits.ForEachSet([&](uint32_t id) { list.AddGrade(id, atom.intensity); });
  }
  for (auto& list : lists) list.Finalize(engine);
  return lists;
}

Result<std::vector<RankedTuple>> ThresholdAlgorithm(
    const std::vector<PreferenceAtom>& preferences, const ProbeEngine& engine,
    size_t k, const EnumerationControl& control) {
  // Bulk leaf prefetch over every atom (one executor pass), like the other
  // five algorithms; leaf loads are shared warm-up, never charged to the
  // budget.
  if (!preferences.empty()) {
    std::vector<reldb::ExprPtr> exprs;
    exprs.reserve(preferences.size());
    for (const PreferenceAtom& atom : preferences) exprs.push_back(atom.expr);
    HYPRE_RETURN_NOT_OK(engine.PrefetchLeaves(exprs));
  }
  // One probe per atom builds the graded lists (each atom's key bitmap is
  // materialized once); the budget admits a prefix of the atoms.
  size_t admitted = control.Admit(preferences.size());
  HYPRE_ASSIGN_OR_RETURN(
      std::vector<GradedList> lists,
      BuildGradedLists(engine, std::span(preferences).first(admitted)));
  std::vector<RankedTuple> top;
  if (lists.empty()) return top;
  // The remaining budget caps the sorted-access depth, TA's unit of work.
  size_t max_depth = 0;
  if (control.budget != nullptr && control.budget->limited()) {
    max_depth = control.budget->remaining();
    if (max_depth == 0) {
      if (control.truncated != nullptr) *control.truncated = true;
      return top;
    }
  }
  size_t sorted_accesses = 0;
  bool capped = false;
  HYPRE_ASSIGN_OR_RETURN(top, ThresholdAlgorithmTopK(engine, lists, k,
                                                     &sorted_accesses,
                                                     max_depth, &capped));
  // The rounds ran already (max_depth bounded them), so they skip the
  // checkpoint: a stop now must not mark a complete answer truncated.
  if (control.budget != nullptr) control.budget->Admit(sorted_accesses);
  if (capped && control.truncated != nullptr) *control.truncated = true;
  return top;
}

}  // namespace core
}  // namespace hypre
