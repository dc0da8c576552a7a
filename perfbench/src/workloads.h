// The benchmark workloads (see README.md for why each exists).
#pragma once

#include "common.h"

namespace perfbench {

/// \brief 1M uniform 64-bit codes in a LinearScanIndex, h=9 range
/// queries through a 2-worker QueryEngine, 128 requests outstanding.
Report RunServeScan(const Args& args);

/// \brief MRHA Option B self-join of clustered tuples on a 4-thread
/// mr::Cluster, after one warm-up join; its traced pass adds the churn
/// probe on the join's hashed codes.
Report RunJoin(const Args& args);

}  // namespace perfbench
