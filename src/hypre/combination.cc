#include "hypre/combination.h"

#include <algorithm>

#include "hypre/intensity.h"

namespace hypre {
namespace core {

size_t Combination::NumPredicates() const {
  size_t n = 0;
  for (const auto& group : groups) n += group.members.size();
  return n;
}

bool Combination::ContainsAttribute(const std::string& attribute_key) const {
  for (const auto& group : groups) {
    if (group.attribute_key == attribute_key) return true;
  }
  return false;
}

bool Combination::ContainsMember(size_t index) const {
  for (const auto& group : groups) {
    if (std::find(group.members.begin(), group.members.end(), index) !=
        group.members.end()) {
      return true;
    }
  }
  return false;
}

std::vector<size_t> Combination::SortedMembers() const {
  std::vector<size_t> out;
  for (const auto& group : groups) {
    out.insert(out.end(), group.members.begin(), group.members.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Combination Combiner::Single(size_t index) const {
  Combination combination;
  Combination::Group group;
  group.attribute_key = (*preferences_)[index].attribute_key;
  group.members.push_back(index);
  combination.groups.push_back(std::move(group));
  return combination;
}

Combination Combiner::AndExtend(const Combination& base, size_t index) const {
  Combination combination = base;
  Combination::Group group;
  group.attribute_key = (*preferences_)[index].attribute_key;
  group.members.push_back(index);
  combination.groups.push_back(std::move(group));
  return combination;
}

Combination Combiner::OrInto(const Combination& base, size_t index) const {
  Combination combination = base;
  const std::string& key = (*preferences_)[index].attribute_key;
  for (auto& group : combination.groups) {
    if (group.attribute_key == key) {
      group.members.push_back(index);
      return combination;
    }
  }
  Combination::Group group;
  group.attribute_key = key;
  group.members.push_back(index);
  combination.groups.push_back(std::move(group));
  return combination;
}

Combination Combiner::MixedClause(const std::vector<size_t>& members) const {
  Combination combination;
  for (size_t index : members) {
    if (combination.ContainsAttribute((*preferences_)[index].attribute_key)) {
      combination = OrInto(combination, index);
    } else {
      combination = AndExtend(combination, index);
    }
  }
  return combination;
}

reldb::ExprPtr Combiner::BuildExpr(const Combination& combination) const {
  std::vector<reldb::ExprPtr> group_exprs;
  group_exprs.reserve(combination.groups.size());
  for (const auto& group : combination.groups) {
    std::vector<reldb::ExprPtr> member_exprs;
    member_exprs.reserve(group.members.size());
    for (size_t index : group.members) {
      member_exprs.push_back((*preferences_)[index].expr);
    }
    group_exprs.push_back(reldb::MakeOr(std::move(member_exprs)));
  }
  return reldb::MakeAnd(std::move(group_exprs));
}

double Combiner::ComputeIntensity(const Combination& combination) const {
  std::vector<double> group_values;
  group_values.reserve(combination.groups.size());
  for (const auto& group : combination.groups) {
    std::vector<double> member_values;
    member_values.reserve(group.members.size());
    for (size_t index : group.members) {
      member_values.push_back((*preferences_)[index].intensity);
    }
    group_values.push_back(CombineOrFold(member_values));
  }
  return CombineAndAll(group_values);
}

std::string Combiner::ToSql(const Combination& combination) const {
  return BuildExpr(combination)->ToString();
}

}  // namespace core
}  // namespace hypre
