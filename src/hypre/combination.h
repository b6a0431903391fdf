// Preference combinations: mixed AND/OR clauses with combined intensity.
//
// A combination is structured as AND-of-OR-groups (dissertation §4.6):
// predicates over the same attribute are OR-combined inside one group,
// groups over different attributes are AND-combined. The combined intensity
// follows the same structure: f_or folds within a group (order dependent,
// Proposition 2), f_and across groups (order independent, Proposition 1).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "hypre/preference.h"
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

}  // namespace core
}  // namespace hypre
