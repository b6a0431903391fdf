// Shared hand-crafted mini-DBLP fixture for the algorithm tests.
//
// Papers and author links are chosen so that pair applicability is known by
// inspection:
//   dblp:        pid 1..8, venues V1 {1,2,6}, V2 {3,4,7}, V3 {5,8}
//   dblp_author: 1:{a1,a2} 2:{a1} 3:{a2,a3} 4:{a1,a3} 5:{a3} 6:{a2}
//                7:{a1,a2} 8:{a4}
// Hence:
//   V1 AND V2          -> empty      (venues are exclusive)
//   aid=1 AND aid=2    -> {1, 7}
//   aid=1 AND aid=3    -> {4}
//   aid=2 AND aid=3    -> {3}
//   aid=1 AND aid=2 AND aid=3 -> empty
//   V1 AND aid=1       -> {1, 2}
//   V2 AND aid=3       -> {3, 4}
#pragma once

#include <gtest/gtest.h>

#include "hypre/preference.h"
#include "hypre/probe_engine.h"
#include "reldb/database.h"

namespace hypre {
namespace core {
namespace testing_fixtures {

inline void BuildMiniDblp(reldb::Database* db) {
  using reldb::Row;
  using reldb::Schema;
  using reldb::Value;
  using reldb::ValueType;
  auto dblp = db->CreateTable("dblp", Schema({{"pid", ValueType::kInt64},
                                              {"venue", ValueType::kString},
                                              {"year", ValueType::kInt64}}));
  ASSERT_TRUE(dblp.ok());
  struct P {
    int64_t pid;
    const char* venue;
    int64_t year;
  };
  const P papers[] = {{1, "V1", 2001}, {2, "V1", 2002}, {3, "V2", 2003},
                      {4, "V2", 2004}, {5, "V3", 2005}, {6, "V1", 2006},
                      {7, "V2", 2007}, {8, "V3", 2008}};
  for (const auto& p : papers) {
    (*dblp)->AppendUnchecked(
        Row{Value::Int(p.pid), Value::Str(p.venue), Value::Int(p.year)});
  }
  ASSERT_TRUE((*dblp)->CreateHashIndex("venue").ok());
  ASSERT_TRUE((*dblp)->CreateHashIndex("pid").ok());

  auto da = db->CreateTable(
      "dblp_author",
      Schema({{"pid", ValueType::kInt64}, {"aid", ValueType::kInt64}}));
  ASSERT_TRUE(da.ok());
  const std::pair<int64_t, int64_t> links[] = {
      {1, 1}, {1, 2}, {2, 1}, {3, 2}, {3, 3}, {4, 1},
      {4, 3}, {5, 3}, {6, 2}, {7, 1}, {7, 2}, {8, 4}};
  for (const auto& [pid, aid] : links) {
    (*da)->AppendUnchecked(Row{Value::Int(pid), Value::Int(aid)});
  }
  ASSERT_TRUE((*da)->CreateHashIndex("pid").ok());
  ASSERT_TRUE((*da)->CreateHashIndex("aid").ok());
}

/// The dissertation's base query: dblp JOIN dblp_author, keys = dblp.pid.
inline reldb::Query MiniBaseQuery() {
  reldb::Query q;
  q.from = "dblp";
  q.joins.push_back({"dblp_author", "dblp.pid", "pid"});
  return q;
}

/// Preferences sorted descending by intensity:
/// aid=1 (0.6), V1 (0.5), aid=2 (0.4), V2 (0.3), aid=3 (0.2).
inline std::vector<PreferenceAtom> MiniPreferences() {
  std::vector<PreferenceAtom> prefs;
  auto add = [&](const std::string& pred, double intensity) {
    auto atom = MakeAtom(pred, intensity);
    EXPECT_TRUE(atom.ok()) << atom.status().ToString();
    if (atom.ok()) prefs.push_back(std::move(atom.value()));
  };
  add("dblp_author.aid=1", 0.6);
  add("dblp.venue='V1'", 0.5);
  add("dblp_author.aid=2", 0.4);
  add("dblp.venue='V2'", 0.3);
  add("dblp_author.aid=3", 0.2);
  SortByIntensityDesc(&prefs);
  return prefs;
}

}  // namespace testing_fixtures
}  // namespace core
}  // namespace hypre
