#include "mrjoin/mrselect.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "dataset/sampling.h"
#include "observability/query_stats.h"

namespace hamming::mrjoin {

Result<std::vector<std::vector<TupleId>>> CollectSelectMatches(
    const std::vector<std::vector<mr::Record>>& outputs,
    std::size_t num_queries) {
  std::vector<std::vector<TupleId>> matches(num_queries);
  JoinBlock block;
  for (const auto& part : outputs) {
    for (const auto& rec : part) {
      HAMMING_RETURN_NOT_OK(DecodeJoinBlock(rec.value, &block));
      for (TupleId q : block.s_ids) {
        if (q >= num_queries) {
          return Status::OutOfRange("mr-select answer names query " +
                                    std::to_string(q) + " of " +
                                    std::to_string(num_queries));
        }
        matches[q].insert(matches[q].end(), block.r_ids.begin(),
                          block.r_ids.end());
      }
    }
  }
  for (auto& m : matches) std::sort(m.begin(), m.end());
  return matches;
}

Result<MrSelectResult> RunMrSelect(const FloatMatrix& data,
                                   const FloatMatrix& queries,
                                   const MrSelectOptions& opts,
                                   mr::Cluster* cluster) {
  if (data.empty() || queries.empty()) {
    return Status::InvalidArgument("empty select input");
  }
  if (data.cols() != queries.cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  MrSelectResult result;
  mr::Counters plan_counters;

  // Preprocessing: sample, learn the hash, select pivots (Section 5.1).
  Rng rng(opts.seed);
  std::size_t sample_n = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.sample_rate *
                                  static_cast<double>(data.rows())));
  auto sample_ids = ReservoirSampleIndices(data.rows(), sample_n, &rng);
  FloatMatrix sample = data.GatherRows(sample_ids);
  SpectralHashingOptions hash_opts;
  hash_opts.code_bits = opts.code_bits;
  HAMMING_ASSIGN_OR_RETURN(std::unique_ptr<SpectralHashing> hash,
                           SpectralHashing::Train(sample, hash_opts));
  GrayPivots pivots =
      GrayPivots::FromSample(hash->HashAll(sample), opts.num_partitions);

  // Broadcast hash + the query batch's codes.
  {
    BufferWriter w;
    hash->Serialize(&w);
    cluster->cache()->Broadcast("mrselect/hash", w.Release(),
                                &plan_counters);
  }
  std::vector<BinaryCode> query_codes = hash->HashAll(queries);
  {
    BufferWriter w;
    w.PutVarint64(query_codes.size());
    for (const auto& q : query_codes) q.Serialize(&w);
    cluster->cache()->Broadcast("mrselect/queries", w.Release(),
                                &plan_counters);
  }

  // One MapReduce job: route data tuples by pivot range; each reducer
  // H-Builds its local index and answers every broadcast query.
  const SpectralHashing* hash_ptr = hash.get();
  const GrayPivots* pivots_ptr = &pivots;
  const std::vector<BinaryCode>* queries_ptr = &query_codes;
  DynamicHAIndexOptions index_opts = opts.index;
  const std::size_t h = opts.h;

  mr::JobSpec job;
  job.name = "mrselect";
  job.options = PlanJobOptions(opts, PartitionKeyRouter());
  job.input_splits = mr::SplitEvenly(MatrixToRecords(data, Table::kR),
                                     cluster->total_slots());
  job.map_fn = [hash_ptr, pivots_ptr](const mr::Record& rec,
                                      mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
    uint32_t part = static_cast<uint32_t>(pivots_ptr->PartitionOf(ct.code));
    out->Emit(PartitionKey(part), EncodeCodeTuple(ct));
    return Status::OK();
  };
  // Per-query search-work histograms ("query.candidates", ...) when the
  // caller attached a metrics registry. Recording happens inside reduce
  // attempts, so under fault injection a retried attempt records its
  // queries again — unlike the runtime's own metrics these are
  // best-effort effort accounting, not exactly-once totals.
  obs::MetricsRegistry* metrics = opts.exec.metrics;
  const obs::QueryStatsHistograms query_hists =
      obs::QueryStatsHistograms::Register(metrics);
  job.reduce_fn = [queries_ptr, index_opts, h, metrics, query_hists](
                      const std::vector<uint8_t>&,
                      const std::vector<std::vector<uint8_t>>& values,
                      mr::Emitter* out) -> Status {
    std::vector<TupleId> ids;
    std::vector<BinaryCode> codes;
    ids.reserve(values.size());
    codes.reserve(values.size());
    for (const auto& v : values) {
      HAMMING_ASSIGN_OR_RETURN(CodeTuple t, DecodeCodeTuple(v));
      ids.push_back(t.id);
      codes.push_back(t.code);
    }
    DynamicHAIndex local(index_opts);
    HAMMING_RETURN_NOT_OK(local.BuildWithIds(ids, codes));
    // The query set is the natural batch: one coalesced SearchBatch over
    // the partition's local index answers every query.
    std::vector<QueryRequest> reqs;
    reqs.reserve(queries_ptr->size());
    for (const BinaryCode& qcode : *queries_ptr) {
      reqs.push_back(QueryRequest::Range(qcode, h));
    }
    std::vector<QueryResponse> resps(reqs.size());
    HAMMING_RETURN_NOT_OK(local.SearchBatch(reqs, resps));
    // Each query's local answer leaves as one join block: ids × {q}.
    for (std::size_t q = 0; q < resps.size(); ++q) {
      HAMMING_RETURN_NOT_OK(resps[q].status);
      if (metrics != nullptr) query_hists.Observe(metrics, resps[q].stats);
      if (resps[q].ids.empty()) continue;
      const TupleId query = static_cast<TupleId>(q);
      out->Emit({}, EncodeJoinBlock(resps[q].ids, {&query, 1}));
    }
    return Status::OK();
  };
  HAMMING_ASSIGN_OR_RETURN(mr::JobResult job_result, RunJob(job, cluster));
  plan_counters.Merge(job_result.counters);

  HAMMING_ASSIGN_OR_RETURN(
      result.matches, CollectSelectMatches(job_result.outputs, queries.rows()));
  result.shuffle_bytes = plan_counters.Get(mr::kShuffleBytes);
  result.broadcast_bytes = plan_counters.Get(mr::kBroadcastBytes);
  return result;
}

}  // namespace hamming::mrjoin
