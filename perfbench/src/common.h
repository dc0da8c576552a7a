// Shared plumbing of the perfbench binary: arguments, the metric tables,
// percentile helpers, bench-side spans and the machine fingerprint.
//
// Every workload (serve_scan.cc, join.cc) fills a
// Report; main.cc prints it as the JSON result line that ends every
// run. The metric names below must match BENCHMARK.json
// at the repository root (perfbench/test_perfbench.py checks this).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/generators.h"
#include "dataset/matrix.h"
#include "observability/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// \brief Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberately corrupt one checked answer ("extra" adds a wrong
  /// match, "missing" drops a right one); the run must then report
  /// correct=false. Used by the benchmark's own tests.
  std::string corrupt;
  /// Shrinks every input so the self-tests finish quickly. Never used
  /// for measurements.
  bool small = false;
  /// Identifies the measured source tree (git sha or a content digest).
  std::string source_id = "unknown";
  /// Directory for trace files written by --trace 1 runs.
  std::string out_dir = ".";
};

/// \brief Name and unit of one reported metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// \brief End-to-end metrics: printed by every workload with --trace 0,
/// each one measured and never zero.
extern const std::vector<MetricSpec> kEndToEnd;
/// \brief Per-layer metrics: printed by every workload with --trace 1.
/// A layer a workload does not exercise reports 0 (it did no work).
extern const std::vector<MetricSpec> kPerLayer;

/// \brief What one workload run produced.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // rejected, expired or wrong operations
  uint64_t wrong = 0;   // wrong answers among the checked ones
  uint64_t checked = 0;
  std::map<std::string, double> metrics;
  /// Free-form lines printed before the result (details, not metrics).
  std::vector<std::string> notes;
};

/// \brief q-quantile (q in [0, 1]) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// \brief Generator settings of the join's feature-vector corpus: NUS-WIDE-like, 256 clusters, spread 0.35 (the repository's
/// bench settings). The generator seed is fixed and does not follow
/// --seed: how many distinct codes Spectral Hashing makes of a generated
/// corpus varies several-fold from one generator seed to the next (and
/// the self-join's output with it, from 2.5M to 900M pairs), so a seeded
/// corpus would measure the data rather than the code. --seed drives
/// every stream run over them.
hamming::GeneratorOptions CorpusOptions();

/// \brief Up to 2,000 evenly spaced rows of `data`: the sample Spectral
/// Hashing trains on.
hamming::FloatMatrix TrainingSample(const hamming::FloatMatrix& data);

/// \brief splitmix64: the seeded stream every workload derives its
/// inputs from.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// \brief Spans the benchmark records around its own calls into each
/// library module (name = "<layer>.<call>"). They feed the per-layer
/// metrics and the Chrome trace a --trace 1 run writes.
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// \brief Runs `fn` inside a span named `name`; returns its seconds.
  template <typename Fn>
  double Time(const std::string& name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    spans_.push_back(Span{name, start, end});
    return SecondsBetween(start, end);
  }

  /// \brief Durations in seconds of every span called `name`.
  std::vector<double> Seconds(const std::string& name) const;

  /// \brief Adds the spans to `trace` as the "perfbench" process, on
  /// the timebase of `base`.
  void ExportTo(hamming::obs::TraceCollector* trace,
                Clock::time_point base) const;

 private:
  std::vector<Span> spans_;
};

/// \brief Calls `fn` inside one span until at least `min_seconds` have
/// passed (and at least 3 times); returns seconds per call.
template <typename Fn>
double SecondsPerCall(SpanLog* spans, const std::string& name,
                      double min_seconds, Fn&& fn) {
  int calls = 0;
  const double total = spans->Time(name, [&] {
    const Clock::time_point start = Clock::now();
    while (calls < 3 || SecondsBetween(start, Clock::now()) < min_seconds) {
      fn();
      ++calls;
    }
  });
  return total / calls;
}

/// \brief Writes `collector`'s timeline plus `spans` as a Chrome trace
/// to `<out_dir>/trace-<workload>.json`; returns a note line.
std::string WriteTrace(const Args& args, const SpanLog& spans,
                       Clock::time_point base,
                       hamming::obs::TraceCollector* collector);

/// \brief One JSON object describing the machine and the build: CPU
/// model, logical CPUs, cache sizes, active kernel tier, source id and
/// build type.
std::string FingerprintJson(const Args& args);

/// \brief Peak resident set of this process in MiB.
double PeakRssMb();

/// \brief Best-of-several single-thread read bandwidth (GB/s) over a
/// buffer of `bytes` bytes: the ceiling a streaming kernel over a store
/// of that size can reach.
double MeasureReadGbps(std::size_t bytes);

}  // namespace perfbench
