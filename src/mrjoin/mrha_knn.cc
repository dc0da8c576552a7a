#include "mrjoin/mrha_knn.h"

#include <algorithm>

#include "common/rng.h"
#include "dataset/sampling.h"
#include "observability/query_stats.h"

namespace hamming::mrjoin {

Result<MrhaKnnResult> RunMrhaKnnJoin(const FloatMatrix& r_data,
                                     const FloatMatrix& s_data,
                                     const MrhaKnnOptions& opts,
                                     mr::Cluster* cluster) {
  if (r_data.empty() || s_data.empty()) {
    return Status::InvalidArgument("empty join input");
  }
  if (r_data.cols() != s_data.cols()) {
    return Status::InvalidArgument("R and S dimensionality differs");
  }
  if (opts.k == 0) return Status::InvalidArgument("k must be positive");
  MrhaKnnResult result;
  mr::Counters plan_counters;

  // Preprocessing: hash trained on an S sample (or supplied).
  std::unique_ptr<SpectralHashing> trained;
  const SpectralHashing* hash_ptr = opts.pretrained.get();
  if (hash_ptr == nullptr) {
    Rng rng(opts.seed);
    std::size_t sample_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(opts.sample_rate *
                                    static_cast<double>(s_data.rows())));
    auto ids = ReservoirSampleIndices(s_data.rows(), sample_n, &rng);
    FloatMatrix sample = s_data.GatherRows(ids);
    SpectralHashingOptions hopts;
    hopts.code_bits = opts.code_bits;
    HAMMING_ASSIGN_OR_RETURN(trained,
                             SpectralHashing::Train(sample, hopts));
    hash_ptr = trained.get();
  }
  {
    BufferWriter w;
    hash_ptr->Serialize(&w);
    cluster->cache()->Broadcast("mrhaknn/hash", w.Release(),
                                &plan_counters);
  }

  // Build the global HA-Index over S on the driver (the MapReduce build
  // path is exercised by RunMrhaJoin; here S is hashed once and indexed —
  // the broadcast still pays the full serialized index).
  DynamicHAIndex s_index(opts.index);
  {
    std::vector<BinaryCode> s_codes;
    s_codes.reserve(s_data.rows());
    for (std::size_t i = 0; i < s_data.rows(); ++i) {
      s_codes.push_back(hash_ptr->Hash(s_data.Row(i)));
    }
    HAMMING_RETURN_NOT_OK(s_index.Build(s_codes));
    BufferWriter w;
    s_index.Serialize(&w);
    cluster->cache()->Broadcast("mrhaknn/s-index", w.Release(),
                                &plan_counters);
  }

  const DynamicHAIndex* index_ptr = &s_index;
  const std::size_t k = opts.k;
  const std::size_t initial_h = opts.initial_h;
  const std::size_t h_step = std::max<std::size_t>(1, opts.h_step);
  const std::size_t code_bits = opts.code_bits;
  const std::size_t num_partitions = opts.num_partitions;

  mr::JobSpec job;
  job.name = "mrha-knn-join";
  job.options = PlanJobOptions(opts, PartitionKeyRouter());
  job.input_splits = mr::SplitEvenly(MatrixToRecords(r_data, Table::kR),
                                     cluster->total_slots());
  job.map_fn = [hash_ptr, num_partitions](const mr::Record& rec,
                                          mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
    uint32_t part = static_cast<uint32_t>(ct.code.Hash() % num_partitions);
    out->Emit(PartitionKey(part), EncodeCodeTuple(ct));
    return Status::OK();
  };
  // Per-probe kNN-search work histograms; the escalation loop accumulates
  // into one QueryStats per R tuple, with one radius_expansion per retry.
  obs::MetricsRegistry* metrics = opts.exec.metrics;
  const obs::QueryStatsHistograms query_hists =
      obs::QueryStatsHistograms::Register(metrics);
  job.reduce_fn = [index_ptr, k, initial_h, h_step, code_bits, metrics,
                   query_hists](
                      const std::vector<uint8_t>&,
                      const std::vector<std::vector<uint8_t>>& values,
                      mr::Emitter* out) -> Status {
    for (const auto& v : values) {
      HAMMING_ASSIGN_OR_RETURN(CodeTuple t, DecodeCodeTuple(v));
      // Threshold escalation until k candidates qualify (Section 2).
      obs::QueryStats qstats;
      QueryRequest req = QueryRequest::Range(t.code, initial_h);
      QueryResponse resp;
      for (;;) {
        HAMMING_RETURN_NOT_OK(index_ptr->SearchBatch({&req, 1}, {&resp, 1}));
        HAMMING_RETURN_NOT_OK(resp.status);
        qstats += resp.stats;
        if (resp.ids.size() >= k || req.h >= code_bits) break;
        req.h = std::min(code_bits, req.h + h_step);
        ++qstats.radius_expansions;
      }
      if (metrics != nullptr) query_hists.Observe(metrics, qstats);
      std::vector<std::pair<TupleId, uint32_t>> candidates;
      candidates.reserve(resp.ids.size());
      for (std::size_t i = 0; i < resp.ids.size(); ++i) {
        candidates.emplace_back(resp.ids[i], resp.distances[i]);
      }
      // Rank by code distance (ties by id for determinism), keep k.
      std::sort(candidates.begin(), candidates.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return a.first < b.first;
                });
      if (candidates.size() > k) candidates.resize(k);
      BufferWriter w;
      w.PutVarint64(t.id);
      w.PutVarint64(candidates.size());
      for (const auto& [sid, dist] : candidates) {
        w.PutVarint64(sid);
        w.PutDouble(static_cast<double>(dist));
      }
      out->Emit({}, w.Release());
    }
    return Status::OK();
  };
  HAMMING_ASSIGN_OR_RETURN(mr::JobResult job_result, RunJob(job, cluster));
  plan_counters.Merge(job_result.counters);

  for (const auto& part : job_result.outputs) {
    for (const auto& rec : part) {
      BufferReader r(rec.value);
      uint64_t rid, n;
      HAMMING_RETURN_NOT_OK(r.GetVarint64(&rid));
      HAMMING_RETURN_NOT_OK(r.GetVarint64(&n));
      KnnJoinRow row;
      row.r = static_cast<TupleId>(rid);
      row.neighbors.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t sid;
        double dist;
        HAMMING_RETURN_NOT_OK(r.GetVarint64(&sid));
        HAMMING_RETURN_NOT_OK(r.GetDouble(&dist));
        row.neighbors.push_back(static_cast<TupleId>(sid));
      }
      result.rows.push_back(std::move(row));
    }
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const KnnJoinRow& a, const KnnJoinRow& b) { return a.r < b.r; });
  result.shuffle_bytes = plan_counters.Get(mr::kShuffleBytes);
  result.broadcast_bytes = plan_counters.Get(mr::kBroadcastBytes);
  return result;
}

}  // namespace hamming::mrjoin
