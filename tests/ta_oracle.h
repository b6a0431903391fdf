// Test-only Threshold Algorithm oracle: TA over key Values.
//
// The library's TA (src/hypre/algorithms/threshold_algorithm.h) runs over
// the probe engine's dense key ids: per-id grade arrays, ties broken by
// ProbeEngine::KeyRank, a k-bounded heap for the running top-k. The oracle
// shares none of that. Its lists map each key Value to its grade in a hash
// map and sort by (grade descending, Value::Compare ascending); its running
// top-k is a vector kept sorted by intensity, into which every newly seen
// key is inserted ahead of its ties and from whose front the worst one is
// evicted. Output, sorted-access rounds and the budget verdict of the two
// must agree exactly (tests/test_threshold_algorithm.cc).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypre/intensity.h"
#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "hypre/ranking.h"
#include "reldb/value.h"

namespace hypre {
namespace core {
namespace ta_oracle {

/// \brief One per-attribute list: (key, grade) pairs, sorted access
/// descending by grade (ties by key), random access by key.
class GradedList {
 public:
  explicit GradedList(std::string name = "") : name_(std::move(name)) {}

  /// \brief Adds or f_and-merges a grade for `key`.
  void AddGrade(const reldb::Value& key, double grade) {
    auto [it, inserted] = grades_.emplace(key, grade);
    if (!inserted) it->second = CombineAnd(it->second, grade);
  }

  /// \brief Sorts for descending sorted access. Must be called before TopK.
  void Finalize() {
    sorted_.assign(grades_.begin(), grades_.end());
    std::sort(sorted_.begin(), sorted_.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first.Compare(b.first) < 0;
              });
  }

  size_t size() const { return sorted_.size(); }
  const std::pair<reldb::Value, double>& at(size_t depth) const {
    return sorted_[depth];
  }

  /// \brief Random access: the grade of `key`, if present.
  std::optional<double> Grade(const reldb::Value& key) const {
    auto it = grades_.find(key);
    if (it == grades_.end()) return std::nullopt;
    return it->second;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::unordered_map<reldb::Value, double, reldb::ValueHash> grades_;
  std::vector<std::pair<reldb::Value, double>> sorted_;
};

/// \brief TA over finalized oracle lists; same contract as
/// core::ThresholdAlgorithmTopK.
inline Result<std::vector<RankedTuple>> ThresholdAlgorithmTopK(
    const std::vector<GradedList>& lists, size_t k,
    size_t* sorted_accesses = nullptr, size_t max_depth = 0,
    bool* budget_capped = nullptr) {
  if (lists.empty()) {
    return Status::InvalidArgument("TA requires at least one graded list");
  }
  size_t natural_depth = 0;
  for (const auto& list : lists) {
    natural_depth = std::max(natural_depth, list.size());
  }
  size_t depth_limit = natural_depth;
  if (max_depth > 0) depth_limit = std::min(depth_limit, max_depth);

  auto aggregate = [&](const reldb::Value& key) {
    double acc = 0.0;
    for (const auto& list : lists) {
      auto grade = list.Grade(key);
      if (grade) acc = CombineAnd(acc, *grade);
    }
    return acc;
  };

  std::vector<RankedTuple> top;  // kept sorted ascending by intensity
  std::unordered_set<reldb::Value, reldb::ValueHash> seen;

  auto consider = [&](const reldb::Value& key) {
    if (!seen.insert(key).second) return;
    RankedTuple tuple{key, aggregate(key)};
    auto pos = std::lower_bound(
        top.begin(), top.end(), tuple,
        [](const RankedTuple& a, const RankedTuple& b) {
          return a.intensity < b.intensity;
        });
    top.insert(pos, std::move(tuple));
    if (k > 0 && top.size() > k) top.erase(top.begin());
  };

  size_t depth = 0;
  bool halted = false;
  for (; depth < depth_limit; ++depth) {
    double threshold = 0.0;
    for (const auto& list : lists) {
      if (depth < list.size()) {
        const auto& [key, grade] = list.at(depth);
        consider(key);
        threshold = CombineAnd(threshold, grade);
      }
    }
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

  std::vector<RankedTuple> result(top.rbegin(), top.rend());
  SortRanked(&result);
  if (k > 0 && result.size() > k) result.resize(k);
  return result;
}

/// \brief Oracle lists from preference atoms: each atom's matching keys
/// (ProbeEngine::MatchingKeys) graded with its intensity, one list per
/// `list_key(atom)` (default: the attribute key) in first-seen order.
inline Result<std::vector<GradedList>> BuildGradedLists(
    const ProbeEngine& engine, const std::vector<PreferenceAtom>& atoms,
    const std::function<std::string(const PreferenceAtom&)>& list_key =
        nullptr) {
  std::vector<GradedList> lists;
  std::unordered_map<std::string, size_t> index_of;
  for (const auto& atom : atoms) {
    std::string name = list_key ? list_key(atom) : atom.attribute_key;
    auto [it, inserted] = index_of.emplace(name, lists.size());
    if (inserted) lists.emplace_back(name);
    GradedList& list = lists[it->second];
    HYPRE_ASSIGN_OR_RETURN(std::vector<reldb::Value> keys,
                           engine.MatchingKeys(atom.expr));
    for (const reldb::Value& key : keys) list.AddGrade(key, atom.intensity);
  }
  for (auto& list : lists) list.Finalize();
  return lists;
}

}  // namespace ta_oracle
}  // namespace core
}  // namespace hypre
