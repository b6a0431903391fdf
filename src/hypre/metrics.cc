#include "hypre/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace hypre {
namespace core {

double PrefSelectivity(size_t num_tuples, size_t num_preferences) {
  if (num_preferences == 0) return 0.0;
  return static_cast<double>(num_tuples) /
         static_cast<double>(num_preferences);
}

double Utility(size_t num_tuples, size_t num_preferences, double intensity,
               size_t page_cap) {
  size_t effective = num_tuples;
  if (page_cap > 0) effective = std::min(effective, page_cap);
  return PrefSelectivity(effective, num_preferences) * intensity;
}

Result<size_t> Coverage(const ProbeEngine& engine,
                        const std::vector<reldb::ExprPtr>& predicates) {
  HYPRE_ASSIGN_OR_RETURN(size_t universe, engine.UniverseSize());
  KeyBitmap covered(universe);
  for (const auto& predicate : predicates) {
    HYPRE_ASSIGN_OR_RETURN(KeyBitmap bits, engine.EvalBitmap(predicate));
    covered.OrWith(bits);
  }
  return covered.Count();
}

double Similarity(const std::vector<reldb::Value>& a,
                  const std::vector<reldb::Value>& b) {
  if (a.empty() && b.empty()) return 100.0;
  std::unordered_set<reldb::Value, reldb::ValueHash> set_a(a.begin(), a.end());
  size_t common = 0;
  std::unordered_set<reldb::Value, reldb::ValueHash> counted;
  for (const auto& v : b) {
    if (set_a.count(v) > 0 && counted.insert(v).second) ++common;
  }
  size_t denom = std::max(a.size(), b.size());
  if (denom == 0) return 100.0;
  return 100.0 * static_cast<double>(common) / static_cast<double>(denom);
}

double RankAgreement(const std::vector<RankedTuple>& a,
                     const std::vector<RankedTuple>& b) {
  std::unordered_map<reldb::Value, double, reldb::ValueHash> grade_a;
  std::unordered_map<reldb::Value, double, reldb::ValueHash> grade_b;
  for (const auto& t : a) grade_a.emplace(t.key, t.intensity);
  for (const auto& t : b) grade_b.emplace(t.key, t.intensity);
  std::vector<reldb::Value> common;
  for (const auto& t : a) {
    if (grade_b.count(t.key) > 0) common.push_back(t.key);
  }
  size_t concordant = 0;
  size_t discordant = 0;
  for (size_t i = 0; i < common.size(); ++i) {
    for (size_t j = i + 1; j < common.size(); ++j) {
      double da = grade_a.at(common[i]) - grade_a.at(common[j]);
      double db = grade_b.at(common[i]) - grade_b.at(common[j]);
      if (da == 0.0 || db == 0.0) continue;  // tied in one list: skip
      if ((da > 0) == (db > 0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  if (concordant + discordant == 0) return 100.0;
  return 100.0 * static_cast<double>(concordant) /
         static_cast<double>(concordant + discordant);
}

double Overlap(const std::vector<reldb::Value>& a,
               const std::vector<reldb::Value>& b) {
  std::unordered_set<reldb::Value, reldb::ValueHash> set_a(a.begin(), a.end());
  std::unordered_set<reldb::Value, reldb::ValueHash> set_b(b.begin(), b.end());
  std::vector<reldb::Value> ra;
  std::vector<reldb::Value> rb;
  for (const auto& v : a) {
    if (set_b.count(v) > 0) ra.push_back(v);
  }
  for (const auto& v : b) {
    if (set_a.count(v) > 0) rb.push_back(v);
  }
  size_t n = std::min(ra.size(), rb.size());
  if (n == 0) return 100.0;  // vacuous: no common tuples to disagree on
  size_t agree = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ra[i].Compare(rb[i]) == 0) ++agree;
  }
  return 100.0 * static_cast<double>(agree) / static_cast<double>(n);
}

double CountAndCombinations(size_t n) {
  return std::exp2(static_cast<double>(n)) - 1.0;
}

double CountAndOrCombinations(size_t n) {
  return (std::pow(3.0, static_cast<double>(n)) - 1.0) / 2.0;
}

}  // namespace core
}  // namespace hypre
