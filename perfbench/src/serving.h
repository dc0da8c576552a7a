// Helpers shared by serve_scan and the churn probe: the telemetry a traced
// pass attaches to its QueryEngine, per-request sample collection, span
// self times, and the brute-force answer check.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "code/binary_code.h"
#include "common.h"
#include "index/query.h"
#include "observability/metrics.h"
#include "observability/query_log.h"
#include "observability/request_trace.h"
#include "observability/trace.h"
#include "serving/query_engine.h"

namespace perfbench {

using hamming::BinaryCode;
using hamming::TupleId;

/// \brief The library's own request tracing, every request sampled:
/// a 1-in-1 TraceSampler exporting to a TraceCollector, a QueryLog
/// holding a uniform sample of span stacks, and a metrics registry.
struct ServingTelemetry {
  ServingTelemetry();
  /// \brief Points `opts` at this telemetry.
  void Attach(hamming::serving::QueryEngineOptions* opts);

  hamming::obs::MetricsRegistry registry;
  hamming::obs::TraceSampler sampler;
  hamming::obs::TraceCollector collector;
  hamming::obs::QueryLog query_log;
};

/// \brief Per-request measurements of one serving pass.
struct ServeSamples {
  std::vector<double> sent_s;      // send time, seconds into the window
  std::vector<double> latency_us;  // from send (or scheduled send)
  std::vector<double> queue_us;
  std::vector<double> service_us;
  uint64_t completed = 0;
  uint64_t failed = 0;  // rejected at Submit or completed non-OK
  double candidates = 0;
  double results = 0;
  double exact_distances = 0;

  /// \brief Records one completed request sent `sent_s` seconds after
  /// the measurement began; `latency_us` is measured by the caller from
  /// its own send time.
  void Add(const hamming::serving::ServeResult& r, double sent_s,
           double latency_us);
};

/// \brief Throughput and latency percentiles taken per window of send
/// time, then the median across windows: a burst of outside interference
/// moves a few windows, not the reported figure.
struct WindowedFigures {
  double throughput_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
};
/// \brief Window i holds the requests sent in [ends[i-1], ends[i])
/// seconds (the first starts at 0); requests sent after the last end are
/// left out.
WindowedFigures MedianOverWindows(const ServeSamples& samples,
                                  const std::vector<double>& ends);

/// \brief Adds the serving.* and index work metrics of `samples` (and
/// of the engine counters delta) to `report`.
void ReportServingLayer(const ServeSamples& samples,
                        const hamming::serving::ServingCounters& before,
                        const hamming::serving::ServingCounters& after,
                        Report* report);

/// \brief Adds the p50 self time of each request phase span found in
/// the query log: batch_form, respond, epoch_pin, and kernel minus the
/// epoch pins it contains.
void ReportSpanSelfTimes(const hamming::obs::QueryLog& log, Report* report);

/// \brief One request whose response is checked after the run.
struct CheckedQuery {
  BinaryCode query;
  hamming::QueryResponse response;
};

/// \brief Compares each checked response with a brute-force scan of
/// `corpus` at radius `h`; adds checked/wrong counts to `report`.
/// With `corrupt` set, first damages one response as the mode says.
void CheckAgainstBruteForce(
    const std::vector<std::pair<TupleId, BinaryCode>>& corpus, std::size_t h,
    const std::string& corrupt, std::vector<CheckedQuery>* checks,
    Report* report);

}  // namespace perfbench
