#include "serving.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace obs = hamming::obs;
namespace serving = hamming::serving;

namespace {

obs::TraceSamplerOptions SampleEveryRequest() {
  obs::TraceSamplerOptions opts;
  opts.sample_every = 1;
  return opts;
}

obs::QueryLogOptions LargeReservoir() {
  obs::QueryLogOptions opts;
  opts.reservoir_capacity = 4096;
  return opts;
}

}  // namespace

ServingTelemetry::ServingTelemetry()
    : sampler(SampleEveryRequest()), query_log(LargeReservoir()) {}

void ServingTelemetry::Attach(serving::QueryEngineOptions* opts) {
  opts->metrics = &registry;
  opts->sampler = &sampler;
  opts->trace = &collector;
  opts->query_log = &query_log;
}

void ServeSamples::Add(const serving::ServeResult& r, double sent,
                       double latency) {
  if (!r.response.status.ok()) {
    ++failed;
    return;
  }
  ++completed;
  sent_s.push_back(sent);
  latency_us.push_back(latency);
  queue_us.push_back(
      std::chrono::duration<double, std::micro>(r.queue_wait).count());
  service_us.push_back(
      std::chrono::duration<double, std::micro>(r.service_time).count());
  candidates += static_cast<double>(r.response.stats.candidates_generated);
  results += static_cast<double>(r.response.stats.results);
  exact_distances +=
      static_cast<double>(r.response.stats.exact_distance_computations);
}

WindowedFigures MedianOverWindows(const ServeSamples& s,
                                  const std::vector<double>& ends) {
  std::vector<std::vector<double>> windows(ends.size());
  for (std::size_t i = 0; i < s.sent_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), s.sent_s[i]) -
        ends.begin());
    if (w < windows.size()) windows[w].push_back(s.latency_us[i]);
  }
  std::vector<double> rate, p50, p90;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].empty()) continue;
    const double begin = w == 0 ? 0.0 : ends[w - 1];
    rate.push_back(static_cast<double>(windows[w].size()) / (ends[w] - begin));
    p50.push_back(Quantile(windows[w], 0.5));
    p90.push_back(Quantile(windows[w], 0.9));
  }
  return WindowedFigures{Median(rate), Median(p50), Median(p90)};
}

void ReportServingLayer(const ServeSamples& s,
                        const serving::ServingCounters& before,
                        const serving::ServingCounters& after,
                        Report* report) {
  auto& m = report->metrics;
  m["serving.queue_wait_p50_us"] = Median(s.queue_us);
  m["serving.service_p50_us"] = Median(s.service_us);
  const auto batches = static_cast<double>(after.batches - before.batches);
  m["serving.batch_size_mean"] =
      batches > 0
          ? static_cast<double>(after.batched_queries -
                                before.batched_queries) /
                batches
          : 0.0;
  m["serving.e2e_p99_us"] = Quantile(s.latency_us, 0.99);
  const double n = std::max<double>(1.0, static_cast<double>(s.completed));
  m["index.candidates_per_query"] = s.candidates / n;
  m["index.results_per_query"] = s.results / n;
  m["index.useful_ratio"] =
      s.exact_distances > 0 ? s.results / s.exact_distances : 0.0;
}

void ReportSpanSelfTimes(const obs::QueryLog& log, Report* report) {
  std::vector<double> batch_form, respond, epoch_pin, kernel;
  for (const obs::QueryLogEntry& e : log.ReservoirSnapshot()) {
    double pin_us = 0.0, kernel_us = 0.0;
    bool pinned = false;
    for (const obs::RequestSpan& s : e.spans) {
      const double us = static_cast<double>(s.DurationNs()) / 1000.0;
      switch (s.phase) {
        case obs::RequestPhase::kBatchForm:
          batch_form.push_back(us);
          break;
        case obs::RequestPhase::kRespond:
          respond.push_back(us);
          break;
        case obs::RequestPhase::kEpochPin:
          pin_us += us;
          pinned = true;
          break;
        case obs::RequestPhase::kKernel:
          kernel_us += us;
          break;
        default:
          break;
      }
    }
    // The epoch pin runs inside the batched index call the kernel span
    // covers, so the kernel's self time excludes it.
    if (pinned) epoch_pin.push_back(pin_us);
    kernel.push_back(std::max(0.0, kernel_us - pin_us));
  }
  auto& m = report->metrics;
  m["serving.span.batch_form_us"] = Median(batch_form);
  m["serving.span.respond_us"] = Median(respond);
  m["serving.span.epoch_pin_us"] = Median(epoch_pin);
  m["serving.span.kernel_us"] = Median(kernel);
}

namespace {

using Match = std::pair<TupleId, uint32_t>;

std::vector<Match> BruteForce(
    const std::vector<std::pair<TupleId, BinaryCode>>& corpus,
    const BinaryCode& query, std::size_t h) {
  std::vector<Match> out;
  for (const auto& [id, code] : corpus) {
    const std::size_t d = query.Distance(code);
    if (d <= h) out.emplace_back(id, static_cast<uint32_t>(d));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The response as sorted (id, distance); distance 0 stands in when the
// index did not report distances, and the comparison then ignores them.
std::vector<Match> Answer(const hamming::QueryResponse& r) {
  std::vector<Match> out;
  for (std::size_t i = 0; i < r.ids.size(); ++i) {
    out.emplace_back(r.ids[i], r.has_distances ? r.distances[i] : 0u);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SameIds(const std::vector<Match>& a, const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
  }
  return true;
}

// Damages one checked response: "extra" adds a tuple outside the ball,
// "missing" drops a true match.
void Corrupt(const std::string& mode,
             const std::vector<std::pair<TupleId, BinaryCode>>& corpus,
             std::size_t h, std::vector<CheckedQuery>* checks) {
  for (CheckedQuery& c : *checks) {
    hamming::QueryResponse& r = c.response;
    if (mode == "missing" && !r.ids.empty()) {
      r.ids.pop_back();
      if (r.has_distances) r.distances.pop_back();
      return;
    }
    if (mode == "extra") {
      for (const auto& [id, code] : corpus) {
        const std::size_t d = c.query.Distance(code);
        if (d > h) {
          r.ids.push_back(id);
          if (r.has_distances) r.distances.push_back(static_cast<uint32_t>(d));
          return;
        }
      }
    }
  }
}

}  // namespace

void CheckAgainstBruteForce(
    const std::vector<std::pair<TupleId, BinaryCode>>& corpus, std::size_t h,
    const std::string& corrupt, std::vector<CheckedQuery>* checks,
    Report* report) {
  if (!corrupt.empty()) Corrupt(corrupt, corpus, h, checks);
  for (const CheckedQuery& c : *checks) {
    ++report->checked;
    const std::vector<Match> want = BruteForce(corpus, c.query, h);
    const std::vector<Match> got = Answer(c.response);
    const bool ok = c.response.status.ok() &&
                    (c.response.has_distances ? got == want
                                              : SameIds(got, want));
    if (!ok) ++report->wrong;
  }
}

}  // namespace perfbench
