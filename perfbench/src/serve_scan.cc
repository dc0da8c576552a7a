// serve_scan: the serving layer and the horizontal multi-query kernel
// under closed-loop load, with the index layer doing no work of its own.
//
// 1M uniform 64-bit codes (an 8 MB store, larger than a core's L2) sit
// in a LinearScanIndex behind a QueryEngine with 2 workers, max_batch 64
// and a batch linger. One generator thread keeps 128 range queries (h=9)
// outstanding, so every batch is full. (One worker with 64 outstanding
// spread further from run to run on a shared 4-vCPU VM: a run then rides
// on a single vCPU and takes whatever that vCPU's host core gives it.)
// Queries are stored codes with 0-12 bits flipped, so most have at least
// one match for the correctness check; the scan cost does not depend on
// that.
#include <cmath>
#include <deque>
#include <future>
#include <memory>

#include "index/linear_scan.h"
#include "kernels/code_store.h"
#include "kernels/hamming_kernels.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hamming::LinearScanIndex;
using hamming::QueryRequest;
using hamming::QueryResponse;
namespace serving = hamming::serving;

constexpr std::size_t kBits = 64;
constexpr std::size_t kH = 9;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 64;
constexpr std::size_t kOutstanding = 128;
// Long enough for the generator to refill a batch, so every batch is
// full and throughput does not hinge on worker/generator timing.
constexpr std::chrono::microseconds kBatchLinger{1000};
constexpr std::size_t kQueryPool = 1 << 16;
constexpr std::size_t kMaxChecks = 256;
constexpr int kSetupReps = 15;

serving::QueryEngineOptions EngineOptions() {
  serving::QueryEngineOptions opts;
  opts.num_workers = kWorkers;
  opts.max_batch = kMaxBatch;
  opts.batch_linger = kBatchLinger;
  return opts;
}

struct PassResult {
  ServeSamples samples;
  serving::ServingCounters before;
  serving::ServingCounters after;
  double throughput = 0.0;
  uint64_t attempted = 0;
  std::vector<CheckedQuery> checks;
};

// Warm-up, then `seconds` of closed-loop load from this thread. Only
// requests sent after the warm-up are measured.
PassResult ClosedLoopPass(const LinearScanIndex& index,
                          const std::vector<BinaryCode>& queries,
                          const Args& args, double seconds,
                          ServingTelemetry* telemetry) {
  serving::QueryEngineOptions opts = EngineOptions();
  if (telemetry != nullptr) telemetry->Attach(&opts);
  serving::QueryEngine engine(&index, opts);
  PassResult out;
  if (!engine.Start().ok()) {
    out.attempted = out.samples.failed = 1;
    return out;
  }

  struct InFlight {
    Clock::time_point sent;
    std::future<serving::ServeResult> result;
    std::size_t query;
    bool check;
  };
  std::deque<InFlight> inflight;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point measure_from =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.small ? 0.2 : 1.0));
  const Clock::time_point end =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Clock::time_point last_done = measure_from;
  bool measuring = false;
  uint64_t next = 0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (!measuring && now >= measure_from) {
      out.before = engine.counters();
      measuring = true;
    }
    while (now < end && inflight.size() < kOutstanding) {
      const std::size_t q = next % queries.size();
      const bool check =
          measuring && (Mix64(args.seed ^ (next * 0x2545f4914f6cdd1dull)) &
                        511) == 0;
      ++next;
      const Clock::time_point sent = Clock::now();
      auto submitted = engine.Submit(QueryRequest::Range(queries[q], kH));
      if (!submitted.ok()) {
        if (measuring) {
          ++out.attempted;
          ++out.samples.failed;
        }
        break;
      }
      inflight.push_back(
          InFlight{sent, std::move(submitted).ValueOrDie(), q, check});
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    serving::ServeResult r = f.result.get();
    if (f.sent < measure_from) continue;
    ++out.attempted;
    out.samples.Add(r, SecondsBetween(measure_from, f.sent),
                  MicrosBetween(f.sent, r.completed_at));
    last_done = std::max(last_done, r.completed_at);
    if (f.check && out.checks.size() < kMaxChecks) {
      out.checks.push_back(
          CheckedQuery{queries[f.query], std::move(r.response)});
    }
  }
  out.after = engine.counters();
  engine.Shutdown();
  out.throughput = static_cast<double>(out.samples.completed) /
                   SecondsBetween(measure_from, last_done);
  return out;
}

// One-second windows over the measured span.
std::vector<double> SecondWindows(double seconds) {
  std::vector<double> ends;
  for (int i = 1; i <= static_cast<int>(seconds); ++i) ends.push_back(i);
  if (ends.empty()) ends.push_back(seconds);
  return ends;
}

// Direct calls into the index and kernel layers at the engine's mean
// batch size: what one batch costs without the serving layer around it.
void ProbeLayers(const LinearScanIndex& index,
                 const std::vector<BinaryCode>& codes,
                 const std::vector<BinaryCode>& queries, std::size_t batch,
                 SpanLog* spans, Report* report) {
  std::vector<QueryRequest> ranges, knns;
  std::vector<const BinaryCode*> query_ptrs;
  for (std::size_t i = 0; i < batch; ++i) {
    ranges.push_back(QueryRequest::Range(queries[i], kH));
    knns.push_back(QueryRequest::Knn(queries[i], 8));
    query_ptrs.push_back(&queries[i]);
  }
  std::vector<QueryResponse> responses(batch);
  const auto per_query = static_cast<double>(batch);
  auto& m = report->metrics;
  m["index.search_us_per_query"] =
      SecondsPerCall(spans, "index.search_batch", 0.3,
                     [&] { (void)index.SearchBatch(ranges, responses); }) *
      1e6 / per_query;
  m["index.knn_us_per_query"] =
      SecondsPerCall(spans, "index.knn_batch", 0.3,
                     [&] { (void)index.KnnBatch(knns, responses); }) *
      1e6 / per_query;

  const hamming::kernels::CodeStore store =
      hamming::kernels::CodeStore::FromCodes(codes).ValueOrDie();
  const std::vector<std::size_t> radii(batch, kH);
  std::vector<std::vector<hamming::kernels::SlotDistance>> hits;
  const double call_s = SecondsPerCall(
      spans, "kernels.multi_within_distance", 0.3, [&] {
        hamming::kernels::MultiWithinDistance(store, query_ptrs.data(),
                                              radii.data(), batch, &hits);
      });
  const double store_bytes = static_cast<double>(codes.size() * kBits / 8);
  const double read_gbps = store_bytes / call_s / 1e9;
  const double ceiling_gbps =
      MeasureReadGbps(static_cast<std::size_t>(store_bytes));
  m["kernels.multi_ns_per_code"] =
      call_s * 1e9 / (static_cast<double>(codes.size()) * per_query);
  m["kernels.read_gbps"] = read_gbps;
  m["kernels.roofline_frac"] = read_gbps / ceiling_gbps;
  report->notes.push_back("read ceiling " + std::to_string(ceiling_gbps) +
                          " GB/s over " + std::to_string(store_bytes / 1e6) +
                          " MB");
}

}  // namespace

Report RunServeScan(const Args& args) {
  const std::size_t n = args.small ? (1u << 16) : (1u << 20);
  const uint64_t base = Mix64(args.seed);
  std::vector<BinaryCode> codes;
  codes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    codes.push_back(
        BinaryCode::FromUint64(Mix64(base + i), kBits).ValueOrDie());
  }
  std::vector<BinaryCode> queries;
  queries.reserve(kQueryPool);
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    const uint64_t r = Mix64(base ^ (0xa5a5a5a5ull + i));
    BinaryCode q = codes[r % n];
    const std::size_t flips = (r >> 32) % 13;
    for (std::size_t f = 0; f < flips; ++f) {
      q.FlipBit(Mix64(r + f) % kBits);
    }
    queries.push_back(q);
  }

  Report report;
  SpanLog spans;
  const Clock::time_point trace_base = Clock::now();

  // Set-up: index Build + engine Start, repeated; the last index serves.
  std::vector<double> setup_s;
  std::unique_ptr<LinearScanIndex> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto fresh = std::make_unique<LinearScanIndex>();
    bool ok = true;
    double s = spans.Time("index.build",
                          [&] { ok = fresh->Build(codes).ok(); });
    serving::QueryEngine engine(fresh.get(), EngineOptions());
    s += spans.Time("serving.start", [&] { ok = ok && engine.Start().ok(); });
    engine.Shutdown();
    if (!ok) {
      report.attempted = report.failed = 1;
      return report;
    }
    setup_s.push_back(s);
    index = std::move(fresh);
  }

  std::vector<CheckedQuery> checks;
  auto pass = [&](double seconds, ServingTelemetry* telemetry) {
    PassResult p = ClosedLoopPass(*index, queries, args, seconds, telemetry);
    report.attempted += p.attempted;
    report.failed += p.samples.failed;
    for (CheckedQuery& c : p.checks) checks.push_back(std::move(c));
    p.checks.clear();
    return p;
  };

  if (!args.trace) {
    const PassResult untraced = pass(args.seconds, nullptr);
    auto& m = report.metrics;
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    const WindowedFigures w =
        MedianOverWindows(untraced.samples, SecondWindows(args.seconds));
    m["throughput_per_s"] = w.throughput_per_s;
    m["latency_p50_ms"] = w.p50_us / 1e3;
  } else {
    // Untraced half-passes before and after the traced pass: the trace
    // overhead then compares load served around the same time.
    ServingTelemetry telemetry;
    const double before_qps = pass(args.seconds / 2, nullptr).throughput;
    const PassResult traced = pass(args.seconds, &telemetry);
    const double after_qps = pass(args.seconds / 2, nullptr).throughput;
    ReportServingLayer(traced.samples, traced.before, traced.after, &report);
    const WindowedFigures w =
        MedianOverWindows(traced.samples, SecondWindows(args.seconds));
    report.metrics["serving.query_p50_us"] = w.p50_us;
    report.metrics["serving.query_p90_us"] = w.p90_us;
    ReportSpanSelfTimes(telemetry.query_log, &report);
    auto& m = report.metrics;
    m["observability.trace_overhead_frac"] =
        (before_qps + after_qps) / 2 / traced.throughput - 1.0;
    m["index.build_s"] = Median(spans.Seconds("index.build"));
    const auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(m["serving.batch_size_mean"])));
    ProbeLayers(*index, codes, queries, batch, &spans, &report);
    report.notes.push_back(WriteTrace(args, spans, trace_base,
                                      &telemetry.collector));
  }

  std::vector<std::pair<TupleId, BinaryCode>> corpus;
  corpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    corpus.emplace_back(static_cast<TupleId>(i), codes[i]);
  }
  CheckAgainstBruteForce(corpus, kH, args.corrupt, &checks, &report);
  return report;
}

}  // namespace perfbench
