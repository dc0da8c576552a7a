// The churn probe: the index, epoch and rebuild layers of a
// ConcurrentHAIndex under a single writer, measured per layer inside the
// join workload's traced pass (see README.md).
#pragma once

#include <vector>

#include "code/binary_code.h"
#include "common.h"
#include "observability/trace.h"

namespace perfbench {

/// \brief Loads `codes` (hashed, clustered: the HA-Index's intended
/// input) into a ConcurrentHAIndex with default thresholds, applies a
/// seeded single-thread 50/50 insert/delete stream of two and a half
/// rebuild periods, then serves one batch of range queries at radius `h`
/// through a 2-worker QueryEngine (every request traced into `trace`) and
/// checks every answer against brute force over the writer's mirror of
/// the live corpus. Adds the index.* mutation, rebuild and search
/// metrics, serving.span.* self times and kernels.within_ns_per_code to
/// `report`.
void ProbeChurn(const std::vector<hamming::BinaryCode>& codes, std::size_t h,
                const Args& args, SpanLog* spans,
                hamming::obs::TraceCollector* trace, Report* report);

}  // namespace perfbench
