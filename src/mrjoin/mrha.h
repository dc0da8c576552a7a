// MRHA-Index: the paper's MapReduce Hamming-join (Section 5, Figure 5).
//
// Phase 1 (preprocessing, driver side): reservoir-sample R and S, train
// the similarity hash H on the sample, build the Gray-order histogram and
// select pivot values that equi-depth-partition the code space; broadcast
// H and the pivots.
//
// Phase 2 (first MapReduce job): mappers hash each R tuple to its binary
// code and route it to its pivot range; each reducer H-Builds a local
// HA-Index over its partition and emits it serialized; the driver merges
// the local indexes into the global HA-Index.
//
// Phase 3 (second MapReduce job): the global index is broadcast through
// the distributed cache. Option A (small R) broadcasts the index *with*
// leaf tuple-id tables and reducers emit each S tuple's matches directly
// from H-Search. Option B (large R) broadcasts a leafless index; each
// reducer H-Searches every distinct S code of its partition once and
// emits one (qualifying R code, S ids) record per qualifying code, and a
// post-processing hash join (a third MapReduce job) resolves codes to R
// tuple ids. Either way the answer leaves the reducers as join blocks
// (mrjoin/common.h).
#pragma once

#include <memory>

#include "dataset/pivots.h"
#include "hashing/spectral_hashing.h"
#include "index/dynamic_ha_index.h"
#include "mrjoin/common.h"

namespace hamming::mrjoin {

/// \brief Which phase-3 variant to run (Section 5.3).
enum class MrhaOption { kA, kB };

/// \brief Plan configuration (num_partitions/code_bits/h/sample_rate/
/// seed and the per-job execution options come from MRJoinOptions).
struct MrhaOptions : MRJoinOptions {
  MrhaOption option = MrhaOption::kA;
  DynamicHAIndexOptions index;  // H-Build tuning
  /// Optional pre-trained hash. The paper re-learns the hash only "when
  /// a certain amount of the new data is updated" (Section 6.2.3), so
  /// repeated joins amortize training; when set, the sampling and
  /// learn-hash phases are skipped (their times report as 0).
  std::shared_ptr<const SpectralHashing> pretrained;
};

/// \brief Wall-clock seconds per phase (Figure 10a's stacked series).
struct MrhaPhaseTimes {
  double sampling = 0.0;
  double learn_hash = 0.0;
  double pivot_selection = 0.0;
  double index_build = 0.0;
  double join = 0.0;
};

/// \brief Outcome of a full MRHA Hamming-join run.
struct MrhaResult {
  std::vector<JoinPair> pairs;
  MrhaPhaseTimes phase_seconds;
  int64_t shuffle_bytes = 0;    // map-output bytes across all jobs
  int64_t broadcast_bytes = 0;  // distributed-cache bytes across all jobs
  /// Join blocks the answer arrived in: the reduce output records of the
  /// job that emits it (Option A: one per S tuple with matches; Option B:
  /// one per post-join code group with both an R and an S side).
  int64_t answer_blocks = 0;
};

/// \brief Runs the full three-phase Hamming-join of R with S.
Result<MrhaResult> RunMrhaJoin(const FloatMatrix& r_data,
                               const FloatMatrix& s_data,
                               const MrhaOptions& opts, mr::Cluster* cluster);

}  // namespace hamming::mrjoin
