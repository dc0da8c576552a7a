// Distributed Hamming-select over MapReduce.
//
// The paper's title covers select as well as join; its Section 5 spells
// out only the join pipeline, so this plan applies the same machinery to
// a *batch* of select queries: hash and range-partition the dataset by
// Gray pivots, H-Build a local HA-Index per partition, broadcast the
// query codes through the distributed cache, and let every reducer answer
// the whole batch against its local index (a Hamming ball crosses
// Gray-range boundaries, so queries go to all partitions while data moves
// exactly once).
#pragma once

#include "dataset/pivots.h"
#include "hashing/spectral_hashing.h"
#include "index/dynamic_ha_index.h"
#include "mrjoin/common.h"

namespace hamming::mrjoin {

/// \brief Plan configuration (shared knobs come from MRJoinOptions).
struct MrSelectOptions : MRJoinOptions {
  DynamicHAIndexOptions index;
};

/// \brief Outcome: per query, the ids of qualifying dataset tuples.
struct MrSelectResult {
  std::vector<std::vector<TupleId>> matches;  // indexed by query position
  int64_t shuffle_bytes = 0;
  int64_t broadcast_bytes = 0;
};

/// \brief Gathers the select job's reducer outputs — join blocks of
/// (matching ids × {query position}) — into per-query sorted id lists.
/// A block naming a query position >= num_queries is OutOfRange.
Result<std::vector<std::vector<TupleId>>> CollectSelectMatches(
    const std::vector<std::vector<mr::Record>>& outputs,
    std::size_t num_queries);

/// \brief Runs the distributed batch Hamming-select of `queries` (feature
/// vectors) against `data`.
Result<MrSelectResult> RunMrSelect(const FloatMatrix& data,
                                   const FloatMatrix& queries,
                                   const MrSelectOptions& opts,
                                   mr::Cluster* cluster);

}  // namespace hamming::mrjoin
