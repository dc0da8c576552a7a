#include "churn_probe.h"

#include <algorithm>
#include <future>
#include <unordered_map>

#include "index/concurrent_ha_index.h"
#include "kernels/code_store.h"
#include "kernels/hamming_kernels.h"
#include "serving.h"

namespace perfbench {
namespace {

using hamming::ConcurrentHAIndex;
using hamming::QueryRequest;
using hamming::QueryResponse;
namespace serving = hamming::serving;

constexpr std::size_t kQueries = 512;
constexpr std::size_t kProbeBatch = 64;

struct MutationSamples {
  std::vector<double> all_us, insert_us, delete_us, stall_s;
  uint64_t failed = 0;
};

// The writer: a seeded 50/50 stream over a mirror of the live corpus.
// Inserts reuse corpus codes under fresh ids; deletes pick tuples of the
// current base, so every mutation grows the delta by one and the rebuild
// count depends only on the stream length.
MutationSamples RunMutator(ConcurrentHAIndex* index,
                           const std::vector<BinaryCode>& codes,
                           uint64_t seed, std::size_t length,
                           std::unordered_map<TupleId, BinaryCode>* mirror) {
  MutationSamples out;
  std::vector<TupleId> base_ids;
  std::vector<TupleId> delta_ids;
  base_ids.reserve(codes.size());
  for (TupleId id = 0; id < codes.size(); ++id) base_ids.push_back(id);
  auto next_id = static_cast<TupleId>(codes.size());
  uint64_t rebuilds = index->rebuilds();
  for (std::size_t i = 0; i < length; ++i) {
    const uint64_t r = Mix64(seed + i);
    const bool insert = (r & 1) == 0 || base_ids.empty();
    hamming::Status status;
    Clock::time_point start, end;
    if (insert) {
      const TupleId id = next_id++;
      const BinaryCode& code = codes[(r >> 1) % codes.size()];
      start = Clock::now();
      status = index->Insert(id, code);
      end = Clock::now();
      mirror->emplace(id, code);
      delta_ids.push_back(id);
      out.insert_us.push_back(MicrosBetween(start, end));
    } else {
      const std::size_t slot = (r >> 1) % base_ids.size();
      const TupleId id = base_ids[slot];
      base_ids[slot] = base_ids.back();
      base_ids.pop_back();
      auto it = mirror->find(id);
      start = Clock::now();
      status = index->Delete(id, it->second);
      end = Clock::now();
      mirror->erase(it);
      out.delete_us.push_back(MicrosBetween(start, end));
    }
    if (!status.ok()) ++out.failed;
    out.all_us.push_back(MicrosBetween(start, end));
    const uint64_t now_rebuilds = index->rebuilds();
    if (now_rebuilds != rebuilds) {
      // The delta was folded into a new base: this op carried the stall.
      rebuilds = now_rebuilds;
      out.stall_s.push_back(SecondsBetween(start, end));
      base_ids.insert(base_ids.end(), delta_ids.begin(), delta_ids.end());
      delta_ids.clear();
    }
  }
  return out;
}

}  // namespace

void ProbeChurn(const std::vector<BinaryCode>& codes, std::size_t h,
                const Args& args, SpanLog* spans,
                hamming::obs::TraceCollector* trace, Report* report) {
  auto& m = report->metrics;
  ServingTelemetry telemetry;
  hamming::ConcurrentHAIndexOptions index_opts;
  index_opts.metrics = &telemetry.registry;
  ConcurrentHAIndex index(index_opts);
  bool ok = true;
  m["index.build_s"] =
      spans->Time("index.build", [&] { ok = index.Build(codes).ok(); });
  if (!ok) {
    ++report->attempted;
    ++report->failed;
    return;
  }

  // Two and a half rebuild periods: exactly two rebuilds.
  const std::size_t period = index_opts.rebuild_threshold;
  const std::size_t length = 2 * period + period / 2;
  std::unordered_map<TupleId, BinaryCode> mirror;
  for (TupleId id = 0; id < codes.size(); ++id) mirror.emplace(id, codes[id]);
  const uint64_t epoch0 = index.epoch();
  const uint64_t rebuilds0 = index.rebuilds();
  MutationSamples mu;
  spans->Time("index.mutate", [&] {
    mu = RunMutator(&index, codes, Mix64(args.seed ^ 0x6d75746174696f6eull),
                    length, &mirror);
  });
  report->attempted += mu.all_us.size();
  report->failed += mu.failed;
  m["mutation_p50_us"] = Quantile(mu.all_us, 0.5);
  m["mutation_p90_us"] = Quantile(mu.all_us, 0.9);
  m["index.insert_p50_us"] = Median(mu.insert_us);
  m["index.delete_p50_us"] = Median(mu.delete_us);
  m["index.rebuilds"] = static_cast<double>(index.rebuilds() - rebuilds0);
  m["index.rebuild_stall_s"] = Mean(mu.stall_s);
  m["index.epochs_published"] = static_cast<double>(index.epoch() - epoch0);

  // Range queries near stored codes: a stored code with 0-3 bits flipped.
  const std::size_t bits = codes.front().size();
  std::vector<BinaryCode> queries;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const uint64_t r = Mix64(args.seed ^ (0x70726f6265ull + i));
    BinaryCode q = codes[r % codes.size()];
    for (std::size_t f = 0; f < ((r >> 32) & 3); ++f) {
      q.FlipBit(Mix64(r + f) % bits);
    }
    queries.push_back(std::move(q));
  }

  // One traced engine batch on the churned index: every request is
  // sampled, so the epoch pin inside each batched index call is a span.
  serving::QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = kProbeBatch;
  telemetry.Attach(&opts);
  opts.trace = trace;
  std::vector<CheckedQuery> checks;
  {
    serving::QueryEngine engine(&index, opts);
    if (!engine.Start().ok()) {
      ++report->attempted;
      ++report->failed;
      return;
    }
    std::vector<std::future<serving::ServeResult>> futures;
    spans->Time("serving.churn_batch", [&] {
      for (const BinaryCode& q : queries) {
        ++report->attempted;
        auto submitted = engine.Submit(QueryRequest::Range(q, h));
        if (submitted.ok()) {
          futures.push_back(std::move(submitted).ValueOrDie());
        } else {
          ++report->failed;
        }
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        serving::ServeResult r = futures[i].get();
        if (!r.response.status.ok()) {
          ++report->failed;
          continue;
        }
        checks.push_back(CheckedQuery{queries[i], std::move(r.response)});
      }
    });
    engine.Shutdown();
  }
  ReportSpanSelfTimes(telemetry.query_log, report);
  double candidates = 0, results = 0, exact = 0;
  for (const CheckedQuery& c : checks) {
    candidates += static_cast<double>(c.response.stats.candidates_generated);
    results += static_cast<double>(c.response.stats.results);
    exact +=
        static_cast<double>(c.response.stats.exact_distance_computations);
  }
  const double served =
      std::max<double>(1.0, static_cast<double>(checks.size()));
  m["index.candidates_per_query"] = candidates / served;
  m["index.results_per_query"] = results / served;
  m["index.useful_ratio"] = exact > 0 ? results / exact : 0.0;

  // Direct batched calls on the churned index (base plus live delta).
  std::vector<QueryRequest> ranges, knns;
  for (std::size_t i = 0; i < kProbeBatch; ++i) {
    ranges.push_back(QueryRequest::Range(queries[i], h));
    knns.push_back(QueryRequest::Knn(queries[i], 8));
  }
  std::vector<QueryResponse> responses(kProbeBatch);
  m["index.search_us_per_query"] =
      SecondsPerCall(spans, "index.search_batch", 0.3,
                     [&] { (void)index.SearchBatch(ranges, responses); }) *
      1e6 / kProbeBatch;
  m["index.knn_us_per_query"] =
      SecondsPerCall(spans, "index.knn_batch", 0.3,
                     [&] { (void)index.KnnBatch(knns, responses); }) *
      1e6 / kProbeBatch;

  // The delta scan: one query against a store of the mean delta size.
  const std::size_t delta = std::min(codes.size(), period / 2);
  const hamming::kernels::CodeStore store =
      hamming::kernels::CodeStore::FromCodes(
          std::vector<BinaryCode>(codes.begin(), codes.begin() + delta))
          .ValueOrDie();
  std::vector<uint32_t> slots;
  const double scan_s = SecondsPerCall(
      spans, "kernels.batch_within_distance", 0.3, [&] {
        for (const BinaryCode& q : queries) {
          slots.clear();
          hamming::kernels::BatchWithinDistance(q, store, h, &slots);
        }
      });
  m["kernels.within_ns_per_code"] =
      scan_s * 1e9 / static_cast<double>(queries.size() * delta);

  const uint64_t wrong_before = report->wrong;
  std::vector<std::pair<TupleId, BinaryCode>> live(mirror.begin(),
                                                   mirror.end());
  CheckAgainstBruteForce(live, h, args.corrupt, &checks, report);
  report->notes.push_back(
      "churn probe: " + std::to_string(mu.all_us.size()) + " mutations, " +
      std::to_string(index.rebuilds() - rebuilds0) + " rebuilds, " +
      std::to_string(checks.size()) + " queries checked, " +
      std::to_string(report->wrong - wrong_before) + " wrong");
}

}  // namespace perfbench
