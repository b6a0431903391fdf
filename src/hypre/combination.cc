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

Status CombinationProber::PrefetchAll() const {
  const auto& prefs = combiner_->preferences();
  std::vector<reldb::ExprPtr> exprs;
  exprs.reserve(prefs.size());
  for (const auto& pref : prefs) exprs.push_back(pref.expr);
  HYPRE_RETURN_NOT_OK(engine_->PrefetchLeaves(exprs));
  // Materializing the per-preference bitmaps is now pure bitmap algebra.
  for (size_t i = 0; i < prefs.size(); ++i) {
    HYPRE_RETURN_NOT_OK(PreferenceBits(i).status());
  }
  return Status::OK();
}

Result<const KeyBitmap*> CombinationProber::PreferenceBits(
    size_t index) const {
  if (cached_epoch_ != engine_->epoch()) {
    // The engine refreshed under us: every cached bitmap reflects a dead
    // epoch. Drop them all; re-materialization below is pure bitmap algebra
    // over the patched leaf cache.
    member_bits_.clear();
    cached_epoch_ = engine_->epoch();
  }
  if (member_bits_.size() < combiner_->preferences().size()) {
    member_bits_.resize(combiner_->preferences().size());
  }
  if (member_bits_[index] == nullptr) {
    HYPRE_ASSIGN_OR_RETURN(
        KeyBitmap bits,
        engine_->EvalBitmap(combiner_->preferences()[index].expr));
    member_bits_[index] = std::make_unique<KeyBitmap>(std::move(bits));
  }
  return member_bits_[index].get();
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
  // Tombstoned keys are masked out of every probe result (delta contract).
  if (engine_->has_tombstones()) {
    HYPRE_ASSIGN_OR_RETURN(const KeyBitmap* live, engine_->UniverseBitmap());
    out->AndWith(*live);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace hypre
