// join: the MapReduce runtime doing nearly all the work, the serving
// layer none.
//
// RunMrhaJoin Option B self-joins 40,000 NUS-WIDE-like tuples hashed to
// 32 bits at h=2 over 16 partitions on a 4-thread mr::Cluster. The hash
// is trained during set-up and passed in pre-trained; one warm-up join
// runs before timing. Option B ships the qualifying (code, s) records
// through a third, post-join job, so the runtime's map, shuffle, sort,
// reduce and distributed cache all carry real volume.
//
// The traced pass also runs the churn probe (churn_probe.h) on the
// join's hashed codes: the HA-Index's mutation, epoch and rebuild layers
// are measured here, on the workload whose input they are built for.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "churn_probe.h"
#include "common/sync.h"
#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "mapreduce/cluster.h"
#include "mrjoin/mrha.h"
#include "observability/metric_names.h"
#include "observability/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hamming::BinaryCode;
using hamming::FloatMatrix;
using hamming::JoinPair;
using hamming::TupleId;
namespace mr = hamming::mr;
namespace mrjoin = hamming::mrjoin;
namespace obs = hamming::obs;

constexpr std::size_t kBits = 32;
constexpr std::size_t kH = 2;
constexpr std::size_t kPartitions = 16;
constexpr std::size_t kSampledR = 64;
constexpr int kSetupReps = 7;
// Timed joins per pass: one per kSecondsPerJoin of --seconds, at least
// three. The count depends on --seconds only, so every run medians the
// same number of joins.
constexpr double kSecondsPerJoin = 3.0;
constexpr int kMinJoins = 3;
// Option B's jobs in plan order: build (R), join (S), post-join.
constexpr std::size_t kJoinJob = 1;

// Forwards job events to the trace collector and, at the end of each
// job's shuffle, records that job's reducer-input histogram (the
// registry is cumulative across the plan's jobs).
class PerJobShuffle final : public mr::JobObserver {
 public:
  PerJobShuffle(obs::MetricsRegistry* registry, obs::TraceCollector* trace)
      : registry_(registry), trace_(trace) {}

  void OnEvent(const mr::JobEvent& event) override {
    trace_->OnEvent(event);
    if (event.type != mr::JobEventType::kPhaseFinish ||
        event.detail != "shuffle") {
      return;
    }
    const obs::MetricsSnapshot snap = registry_->Snapshot();
    auto it = snap.histograms.find(obs::metric_names::kMrReduceInputRecords);
    if (it == snap.histograms.end()) return;
    jobs_.push_back(obs::HistogramSnapshot::Delta(last_, it->second));
    last_ = it->second;
  }

  /// \brief Reducer-input records of each job, in the order the jobs
  /// shuffled.
  const std::vector<obs::HistogramSnapshot>& jobs() const { return jobs_; }

 private:
  obs::MetricsRegistry* registry_;
  obs::TraceCollector* trace_;
  obs::HistogramSnapshot last_;
  std::vector<obs::HistogramSnapshot> jobs_;
};

struct JoinRun {
  double seconds = 0.0;
  mrjoin::MrhaResult result;  // pairs dropped once checked
  std::size_t pairs = 0;
};

// Checks one join's pairs: every pair within h, and for sampled R
// tuples every S tuple within h present. Returns true when correct.
bool CheckPairs(const std::vector<BinaryCode>& codes,
                const std::vector<JoinPair>& pairs, uint64_t seed,
                std::string* detail) {
  uint64_t far = 0;
  for (const JoinPair& p : pairs) {
    if (p.r >= codes.size() || p.s >= codes.size() ||
        codes[p.r].Distance(codes[p.s]) > kH) {
      ++far;
    }
  }
  std::unordered_map<TupleId, std::vector<TupleId>> got;
  for (std::size_t i = 0; i < kSampledR; ++i) {
    got[static_cast<TupleId>(Mix64(seed + i) % codes.size())];
  }
  for (const JoinPair& p : pairs) {
    auto it = got.find(p.r);
    if (it != got.end()) it->second.push_back(p.s);
  }
  uint64_t incomplete = 0;
  for (auto& [r, s_ids] : got) {
    std::vector<TupleId> want;
    for (std::size_t s = 0; s < codes.size(); ++s) {
      if (codes[r].Distance(codes[s]) <= kH) {
        want.push_back(static_cast<TupleId>(s));
      }
    }
    std::sort(s_ids.begin(), s_ids.end());
    if (s_ids != want) ++incomplete;
  }
  *detail = std::to_string(pairs.size()) + " pairs, " + std::to_string(far) +
            " beyond h, " + std::to_string(incomplete) + " of " +
            std::to_string(got.size()) + " sampled R tuples incomplete";
  return far == 0 && incomplete == 0;
}

// Damages one join answer as --corrupt asks.
void Corrupt(const std::string& mode, const std::vector<BinaryCode>& codes,
             uint64_t seed, std::vector<JoinPair>* pairs) {
  if (mode == "extra") {
    for (TupleId s = 0; s < codes.size(); ++s) {
      if (codes[0].Distance(codes[s]) > kH) {
        pairs->push_back(JoinPair{0, s});
        return;
      }
    }
  } else if (mode == "missing") {
    const auto r = static_cast<TupleId>(Mix64(seed) % codes.size());
    auto it = std::find_if(pairs->begin(), pairs->end(),
                           [r](const JoinPair& p) { return p.r == r; });
    if (it != pairs->end()) pairs->erase(it);
  }
}

}  // namespace

Report RunJoin(const Args& args) {
  const std::size_t n = args.small ? 4000 : 40000;
  const FloatMatrix data = hamming::GenerateDataset(
      hamming::DatasetKind::kNusWide, n, CorpusOptions());
  const FloatMatrix train = TrainingSample(data);

  Report report;
  SpanLog spans;
  const Clock::time_point trace_base = Clock::now();

  // Set-up, repeated: train the hash and hash every tuple (the codes are
  // the correctness oracle's input).
  std::vector<double> setup_s;
  std::shared_ptr<const hamming::SpectralHashing> hash;
  std::vector<BinaryCode> codes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bool ok = true;
    double s = spans.Time("hashing.train", [&] {
      hamming::SpectralHashingOptions hopts;
      hopts.code_bits = kBits;
      auto trained = hamming::SpectralHashing::Train(train, hopts);
      ok = trained.ok();
      if (ok) hash = std::move(trained).ValueOrDie();
    });
    if (!ok) {
      report.attempted = report.failed = 1;
      return report;
    }
    s += spans.Time("hashing.hash_all", [&] { codes = hash->HashAll(data); });
    setup_s.push_back(s);
  }

  mrjoin::MrhaOptions opts;
  opts.option = mrjoin::MrhaOption::kB;
  opts.code_bits = kBits;
  opts.h = kH;
  opts.num_partitions = kPartitions;
  opts.seed = args.seed;
  opts.pretrained = hash;
  mr::ClusterOptions cluster_opts;
  cluster_opts.num_threads =
      std::min<std::size_t>(4, hamming::HardwareConcurrency());
  mr::Cluster cluster(cluster_opts);

  // Runs one join and checks its answer (the pairs are dropped once
  // checked); false when the join itself failed.
  auto run_join = [&](const mrjoin::MrhaOptions& o, const char* span,
                      JoinRun* run) {
    bool ok = true;
    run->seconds = spans.Time(span, [&] {
      auto result = mrjoin::RunMrhaJoin(data, data, o, &cluster);
      ok = result.ok();
      if (ok) run->result = std::move(result).ValueOrDie();
    });
    ++report.attempted;
    if (!ok) {
      ++report.failed;
      return false;
    }
    const bool first = report.checked == 0;
    if (!args.corrupt.empty() && first) {
      Corrupt(args.corrupt, codes, args.seed, &run->result.pairs);
    }
    std::string detail;
    ++report.checked;
    if (!CheckPairs(codes, run->result.pairs, args.seed, &detail)) {
      ++report.wrong;
    }
    if (first) report.notes.push_back(std::string(span) + ": " + detail);
    run->pairs = run->result.pairs.size();
    run->result.pairs = {};
    return true;
  };
  const auto joins = static_cast<std::size_t>(std::max<long>(
      kMinJoins, std::lround(args.seconds / kSecondsPerJoin)));

  // Warm-up: the first join in a process pays one-time costs.
  if (!mrjoin::RunMrhaJoin(data, data, opts, &cluster).ok()) {
    report.attempted = report.failed = 1;
    return report;
  }

  auto& m = report.metrics;
  std::vector<double> untraced_s;
  if (!args.trace) {
    for (std::size_t i = 0; i < joins; ++i) {
      JoinRun run;
      if (!run_join(opts, "mrjoin.run_mrha_join", &run)) return report;
      untraced_s.push_back(run.seconds);
    }
    const double median_s = Median(untraced_s);
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    m["throughput_per_s"] = static_cast<double>(n) / median_s;
    m["latency_p50_ms"] = median_s * 1e3;
    return report;
  }

  // The traced pass: the runtime's own metrics and job events, with
  // untraced joins interleaved (in alternating order) so that the trace
  // overhead compares joins run at the same time. Each traced join
  // records into a registry of its own.
  obs::TraceCollector collector;
  std::vector<double> traced_s, map_s, shuffle_s, reduce_s, skew;
  std::vector<double> join_job_records, join_job_max;
  std::vector<double> pivot_s, index_build_s, join_s;
  JoinRun last;
  for (std::size_t i = 0; i < 2 * joins; ++i) {
    JoinRun run;
    if ((i + i / 2) % 2 == 0) {  // untraced, traced, traced, untraced, ...
      if (!run_join(opts, "mrjoin.run_mrha_join", &run)) return report;
      untraced_s.push_back(run.seconds);
      continue;
    }
    obs::MetricsRegistry registry;
    PerJobShuffle observer(&registry, &collector);
    mrjoin::MrhaOptions traced_opts = opts;
    traced_opts.exec.metrics = &registry;
    traced_opts.exec.observer = &observer;
    if (!run_join(traced_opts, "mrjoin.run_mrha_join.traced", &run)) {
      return report;
    }
    const obs::MetricsSnapshot snap = registry.Snapshot();
    auto seconds_in = [&](const std::string& name) {
      auto it = snap.histograms.find(name);
      return it == snap.histograms.end()
                 ? 0.0
                 : static_cast<double>(it->second.sum) / 1e6;
    };
    traced_s.push_back(run.seconds);
    map_s.push_back(seconds_in("time.map_micros"));
    shuffle_s.push_back(seconds_in("time.shuffle_micros"));
    reduce_s.push_back(seconds_in("time.reduce_micros"));
    const std::vector<obs::HistogramSnapshot>& jobs = observer.jobs();
    double worst = 0.0;
    for (const obs::HistogramSnapshot& job : jobs) {
      worst = std::max(worst, job.SkewMaxOverMean());
    }
    skew.push_back(worst);
    if (jobs.size() > kJoinJob) {
      join_job_records.push_back(static_cast<double>(jobs[kJoinJob].sum));
      join_job_max.push_back(static_cast<double>(jobs[kJoinJob].max));
    }
    pivot_s.push_back(run.result.phase_seconds.pivot_selection);
    index_build_s.push_back(run.result.phase_seconds.index_build);
    join_s.push_back(run.result.phase_seconds.join);
    last = std::move(run);
  }

  m["hashing.train_s"] = Median(spans.Seconds("hashing.train"));
  m["hashing.hash_us_per_tuple"] =
      Median(spans.Seconds("hashing.hash_all")) * 1e6 / static_cast<double>(n);
  m["mr.map_s"] = Median(map_s);
  m["mr.shuffle_s"] = Median(shuffle_s);
  m["mr.reduce_s"] = Median(reduce_s);
  m["mr.reduce_input_max_over_mean"] = Median(skew);
  m["mr.shuffle_mb"] = static_cast<double>(last.result.shuffle_bytes) / 1e6;
  m["mr.broadcast_mb"] = static_cast<double>(last.result.broadcast_bytes) / 1e6;
  m["network_mb"] = m["mr.shuffle_mb"] + m["mr.broadcast_mb"];
  // Afrati et al.: replication rate r = reducer inputs per input tuple,
  // q = the largest reducer input, and for b-bit Hamming-distance joins
  // r >= b / log2 q. Both come from the join job's shuffle alone (S
  // tuples to partition reducers); R reaches those reducers as the
  // broadcast index, which the model does not count (mr.broadcast_mb).
  // q is the histogram's max, exact in this self-join: the registry's
  // running max after the join job's shuffle is the larger of the two
  // jobs' maxima, and the build job shuffled the same tuples to the same
  // partitions.
  const double q = Median(join_job_max);
  m["mr.replication_rate"] = Median(join_job_records) / static_cast<double>(n);
  m["mr.max_reducer_input"] = q;
  m["mr.replication_lower_bound"] =
      q > 1 ? static_cast<double>(kBits) / std::log2(q) : 0.0;
  m["mrjoin.pivot_s"] = Median(pivot_s);
  m["mrjoin.index_build_s"] = Median(index_build_s);
  m["mrjoin.join_s"] = Median(join_s);
  m["mrjoin.pairs"] = static_cast<double>(last.pairs);
  m["observability.trace_overhead_frac"] =
      Median(traced_s) / Median(untraced_s) - 1.0;
  ProbeChurn(codes, kH, args, &spans, &collector, &report);
  report.notes.push_back(WriteTrace(args, spans, trace_base, &collector));
  return report;
}

}  // namespace perfbench
