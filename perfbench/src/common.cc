#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "kernels/hamming_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serving.queue_wait_p50_us", "us"},
    {"serving.service_p50_us", "us"},
    {"serving.batch_size_mean", "count"},
    {"serving.query_p50_us", "us"},
    {"serving.query_p90_us", "us"},
    {"serving.e2e_p99_us", "us"},
    {"serving.span.batch_form_us", "us"},
    {"serving.span.respond_us", "us"},
    {"serving.span.epoch_pin_us", "us"},
    {"serving.span.kernel_us", "us"},
    {"mutation_p50_us", "us"},
    {"mutation_p90_us", "us"},
    {"index.search_us_per_query", "us"},
    {"index.knn_us_per_query", "us"},
    {"index.candidates_per_query", "count"},
    {"index.results_per_query", "count"},
    {"index.useful_ratio", "ratio"},
    {"index.insert_p50_us", "us"},
    {"index.delete_p50_us", "us"},
    {"index.rebuilds", "count"},
    {"index.rebuild_stall_s", "s"},
    {"index.epochs_published", "count"},
    {"index.build_s", "s"},
    {"kernels.multi_ns_per_code", "ns"},
    {"kernels.read_gbps", "GB/s"},
    {"kernels.roofline_frac", "ratio"},
    {"kernels.within_ns_per_code", "ns"},
    {"hashing.train_s", "s"},
    {"hashing.hash_us_per_tuple", "us"},
    {"network_mb", "MB"},
    {"mr.map_s", "s"},
    {"mr.shuffle_s", "s"},
    {"mr.reduce_s", "s"},
    {"mr.reduce_input_max_over_mean", "ratio"},
    {"mr.shuffle_mb", "MB"},
    {"mr.broadcast_mb", "MB"},
    {"mr.replication_rate", "ratio"},
    {"mr.max_reducer_input", "count"},
    {"mr.replication_lower_bound", "ratio"},
    {"mrjoin.pivot_s", "s"},
    {"mrjoin.index_build_s", "s"},
    {"mrjoin.join_s", "s"},
    {"mrjoin.pairs", "count"},
    {"observability.trace_overhead_frac", "ratio"},
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

hamming::GeneratorOptions CorpusOptions() {
  hamming::GeneratorOptions opts;
  opts.seed = 1;
  opts.num_clusters = 256;
  opts.cluster_spread = 0.35;
  return opts;
}

hamming::FloatMatrix TrainingSample(const hamming::FloatMatrix& data) {
  const std::size_t rows = std::min<std::size_t>(2000, data.rows());
  hamming::FloatMatrix sample(rows, data.cols());
  for (std::size_t i = 0; i < rows; ++i) {
    auto src = data.Row(i * (data.rows() / rows));
    std::copy(src.begin(), src.end(), sample.MutableRow(i).begin());
  }
  return sample;
}

std::vector<double> SpanLog::Seconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(SecondsBetween(s.start, s.end));
  }
  return out;
}

void SpanLog::ExportTo(hamming::obs::TraceCollector* trace,
                       Clock::time_point base) const {
  for (const Span& s : spans_) {
    trace->AddProcessSpan("perfbench", 0, s.name, "bench",
                          MicrosBetween(base, s.start),
                          MicrosBetween(s.start, s.end));
  }
}

std::string WriteTrace(const Args& args, const SpanLog& spans,
                       Clock::time_point base,
                       hamming::obs::TraceCollector* collector) {
  spans.ExportTo(collector, base);
  const std::string path = args.out_dir + "/trace-" + args.workload + ".json";
  if (!collector->WriteChromeJson(path)) return "trace not written: " + path;
  return "trace: " + path + " (" + std::to_string(collector->size()) +
         " events)";
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// "L1d:48K L1i:32K L2:2048K L3:107520K" from cpu0's sysfs cache entries.
std::string CacheSizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadFirstLine(dir + "level");
    if (level.empty()) break;
    const std::string type = ReadFirstLine(dir + "type");
    std::string label = "L" + level;
    if (type == "Data") label += "d";
    if (type == "Instruction") label += "i";
    if (!out.empty()) out += ' ';
    out += label + ":" + ReadFirstLine(dir + "size");
  }
  return out.empty() ? "unknown" : out;
}

}  // namespace

std::string FingerprintJson(const Args& args) {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"caches\": \"" << JsonEscape(CacheSizes()) << "\""
     << ", \"kernel_tier\": \""
     << hamming::kernels::BackendName(hamming::kernels::ActiveBackend())
     << "\""
     << ", \"source_id\": \"" << JsonEscape(args.source_id) << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MeasureReadGbps(std::size_t bytes) {
  std::vector<uint64_t> buffer(bytes / sizeof(uint64_t));
  for (std::size_t i = 0; i < buffer.size(); ++i) buffer[i] = Mix64(i);
  volatile uint64_t sink = 0;
  double best = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    const Clock::time_point start = Clock::now();
    // Four independent accumulators keep the loop bound by loads, not
    // by one add chain.
    uint64_t a = 0, b = 0, c = 0, d = 0;
    for (std::size_t i = 0; i + 4 <= buffer.size(); i += 4) {
      a += buffer[i];
      b += buffer[i + 1];
      c += buffer[i + 2];
      d += buffer[i + 3];
    }
    sink = sink + (a ^ b ^ c ^ d);
    const double s = SecondsBetween(start, Clock::now());
    best = std::max(best, static_cast<double>(bytes) / s / 1e9);
  }
  return best;
}

}  // namespace perfbench
