// perfbench: the repository's benchmark binary.
//
//   perfbench --workload serve_scan|join --seed N
//             --seconds S --trace 0|1 [--source-id ID] [--out-dir DIR]
//             [--corrupt extra|missing] [--small]
//
// Each workload builds its inputs from the seed, sets up the library,
// warms up, measures for about S seconds, checks its answers and prints
// a JSON result as its last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from an untraced and a traced pass (see README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_scan|join --seed N --seconds S "
               "--trace 0|1 [--source-id ID] [--out-dir DIR] "
               "[--corrupt extra|missing] [--small]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (!args.corrupt.empty() && args.corrupt != "extra" &&
      args.corrupt != "missing") {
    Usage("--corrupt takes extra or missing");
  }
  return args;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report;
  if (args.workload == "serve_scan") {
    report = RunServeScan(args);
  } else if (args.workload == "join") {
    report = RunJoin(args);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  // Every reported name must be declared, and every declared end-to-end
  // metric measured: a typo or a missing measurement is a bench bug,
  // not a zero.
  const std::vector<MetricSpec>& specs = args.trace ? kPerLayer : kEndToEnd;
  std::set<std::string> declared;
  for (const MetricSpec& spec : specs) declared.insert(spec.name);
  for (const auto& [name, value] : report.metrics) {
    if (declared.count(name) == 0) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return 3;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 3;
    }
  }
  if (!args.trace) {
    for (const MetricSpec& spec : specs) {
      auto it = report.metrics.find(spec.name);
      if (it == report.metrics.end() || it->second <= 0.0) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                     spec.name);
        return 3;
      }
    }
  }

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("{\"fingerprint\": %s, \"checked\": %llu, \"wrong\": %llu}\n",
              FingerprintJson(args).c_str(),
              static_cast<unsigned long long>(report.checked),
              static_cast<unsigned long long>(report.wrong));

  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = report.metrics.find(spec.name);
    // A layer this workload does not exercise did no work: 0.
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               FormatNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  const bool correct = report.checked > 0 && report.wrong == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(report.attempted, 1)),
      // A wrong answer is a failed operation.
      static_cast<unsigned long long>(report.failed + report.wrong),
      metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
