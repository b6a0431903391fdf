// Test-only probe oracle: the per-combination evaluation every batched
// probe result is checked against.
//
// The library counts through one probe path, CombinationProber's batch
// methods (src/hypre/batch_prober.h), which compile a frontier to flat
// word-pointer arrays and walk it shard by shard. The oracle shares none of
// that machinery: it evaluates ONE combination at a time with
// CombinationProber::BitsInto (OR within groups, AND across groups, then
// the live mask) and counts the result with KeyBitmap::Count. It plays the
// role HashSetReference plays for the bitmap engine in test_probe_engine.cc,
// one layer up.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hypre/algorithms/common.h"
#include "hypre/batch_prober.h"
#include "hypre/combination.h"
#include "hypre/key_bitmap.h"

namespace hypre {
namespace core {
namespace probe_oracle {

/// \brief Matching-key count of one combination: BitsInto, then Count.
inline Result<size_t> Count(const CombinationProber& prober,
                            const Combination& combination) {
  KeyBitmap bits;
  HYPRE_RETURN_NOT_OK(prober.BitsInto(combination, &bits));
  return bits.Count();
}

/// \brief Oracle counts for a whole frontier, in order.
inline std::vector<size_t> Counts(const CombinationProber& prober,
                                  const std::vector<Combination>& frontier) {
  std::vector<size_t> counts;
  for (const Combination& combination : frontier) {
    auto count = Count(prober, combination);
    EXPECT_TRUE(count.ok()) << count.status().ToString();
    counts.push_back(count.ok() ? *count : 0);
  }
  return counts;
}

/// \brief Oracle counts for `base AND preference[k]`, per candidate k — the
/// expected output of CombinationProber::CountExtensions on BitsInto(base).
inline std::vector<size_t> ExtensionCounts(
    const CombinationProber& prober, const Combiner& combiner,
    const Combination& base, const std::vector<size_t>& candidates) {
  std::vector<Combination> extended;
  for (size_t k : candidates) extended.push_back(combiner.AndExtend(base, k));
  return Counts(prober, extended);
}

/// \brief Oracle counts for `preference[i] AND preference[j]`, per pair —
/// the expected output of CombinationProber::CountPairs.
inline std::vector<size_t> PairCounts(
    const CombinationProber& prober, const Combiner& combiner,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  std::vector<Combination> combined;
  for (const auto& [i, j] : pairs) {
    combined.push_back(combiner.AndExtend(combiner.Single(i), j));
  }
  return Counts(prober, combined);
}

/// \brief Every record's num_tuples equals the oracle count of its
/// combination.
inline void ExpectRecordsMatchOracle(
    const CombinationProber& prober,
    const std::vector<CombinationRecord>& records, const std::string& label) {
  for (size_t i = 0; i < records.size(); ++i) {
    auto count = Count(prober, records[i].combination);
    ASSERT_TRUE(count.ok()) << label << ": " << count.status().ToString();
    EXPECT_EQ(records[i].num_tuples, *count)
        << label << " record " << i << ": " << records[i].predicate_sql;
  }
}

}  // namespace probe_oracle
}  // namespace core
}  // namespace hypre
