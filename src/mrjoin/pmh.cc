#include "mrjoin/pmh.h"

#include <algorithm>

#include "common/rng.h"
#include "dataset/sampling.h"
#include "index/multi_hash_table.h"
#include "observability/query_stats.h"

namespace hamming::mrjoin {

Result<PmhResult> RunPmhJoin(const FloatMatrix& r_data,
                             const FloatMatrix& s_data,
                             const PmhOptions& opts, mr::Cluster* cluster) {
  if (r_data.empty() || s_data.empty()) {
    return Status::InvalidArgument("empty join input");
  }
  PmhResult result;
  mr::Counters plan_counters;

  // Train the hash on a sample (same preprocessing as MRHA so the plans
  // differ only in distribution strategy), unless one is supplied.
  std::unique_ptr<SpectralHashing> trained;
  const SpectralHashing* hash_raw = opts.pretrained.get();
  if (hash_raw == nullptr) {
    Rng rng(opts.seed);
    std::size_t sample_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(opts.sample_rate *
                                    static_cast<double>(r_data.rows())));
    auto sample_ids = ReservoirSampleIndices(r_data.rows(), sample_n, &rng);
    FloatMatrix sample = r_data.GatherRows(sample_ids);
    SpectralHashingOptions hash_opts;
    hash_opts.code_bits = opts.code_bits;
    HAMMING_ASSIGN_OR_RETURN(trained,
                             SpectralHashing::Train(sample, hash_opts));
    hash_raw = trained.get();
  }

  // The mappers need the hash function; it ships via distributed cache
  // exactly as in the MRHA plan.
  {
    BufferWriter w;
    hash_raw->Serialize(&w);
    cluster->cache()->Broadcast("pmh/hash", w.Release(), &plan_counters);
  }

  // Build the k-table Manku index over all of R and broadcast it whole:
  // every table duplicates every fingerprint, which is the O(m * k * N)
  // shipping cost the paper's Section 2 criticizes ("duplicating the hash
  // entries multiple times for the entire datasets is expensive").
  MultiHashTableIndex r_index(opts.num_tables, opts.h);
  {
    std::vector<BinaryCode> r_codes;
    r_codes.reserve(r_data.rows());
    for (std::size_t i = 0; i < r_data.rows(); ++i) {
      r_codes.push_back(hash_raw->Hash(r_data.Row(i)));
    }
    HAMMING_RETURN_NOT_OK(r_index.Build(r_codes));
    BufferWriter w;
    r_index.Serialize(&w);
    cluster->cache()->Broadcast("pmh/r-index", w.Release(), &plan_counters);
  }

  // One MapReduce job: partition S by code hash; each reducer probes the
  // broadcast R index with its S partition.
  const SpectralHashing* hash_ptr = hash_raw;
  const MultiHashTableIndex* r_index_ptr = &r_index;
  const std::size_t h = opts.h;

  mr::JobSpec job;
  job.name = "pmh-join";
  job.options = PlanJobOptions(opts, PartitionKeyRouter());
  job.input_splits = mr::SplitEvenly(MatrixToRecords(s_data, Table::kS),
                                     cluster->total_slots());
  const std::size_t num_partitions = opts.num_partitions;
  job.map_fn = [hash_ptr, num_partitions](const mr::Record& rec,
                                          mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
    // Key by code hash mod N: spreads S uniformly and gives each reducer
    // exactly one key group, so each builds the R index exactly once.
    uint32_t part = static_cast<uint32_t>(ct.code.Hash() % num_partitions);
    out->Emit(PartitionKey(part), EncodeCodeTuple(ct));
    return Status::OK();
  };
  // Per-probe search-work histograms when a metrics registry is attached.
  obs::MetricsRegistry* metrics = opts.exec.metrics;
  const obs::QueryStatsHistograms query_hists =
      obs::QueryStatsHistograms::Register(metrics);
  job.reduce_fn = [r_index_ptr, h, metrics, query_hists](
                      const std::vector<uint8_t>&,
                      const std::vector<std::vector<uint8_t>>& values,
                      mr::Emitter* out) -> Status {
    // One group per reducer: probe the broadcast R index with every S
    // tuple of this partition, in coalesced batches (one sample per
    // probe still lands in the work histograms).
    constexpr std::size_t kProbeBatch = 64;
    std::vector<TupleId> s_ids;
    std::vector<QueryRequest> reqs;
    s_ids.reserve(kProbeBatch);
    reqs.reserve(kProbeBatch);
    std::vector<QueryResponse> resps;
    for (std::size_t begin = 0; begin < values.size(); begin += kProbeBatch) {
      const std::size_t count = std::min(kProbeBatch, values.size() - begin);
      s_ids.clear();
      reqs.clear();
      for (std::size_t i = 0; i < count; ++i) {
        HAMMING_ASSIGN_OR_RETURN(CodeTuple t,
                                 DecodeCodeTuple(values[begin + i]));
        s_ids.push_back(t.id);
        reqs.push_back(QueryRequest::Range(std::move(t.code), h));
      }
      resps.resize(count);
      HAMMING_RETURN_NOT_OK(r_index_ptr->SearchBatch(reqs, resps));
      for (std::size_t i = 0; i < count; ++i) {
        HAMMING_RETURN_NOT_OK(resps[i].status);
        if (metrics != nullptr) query_hists.Observe(metrics, resps[i].stats);
        // One join block per probe with matches: its r ids × {s}.
        if (resps[i].ids.empty()) continue;
        out->Emit({}, EncodeJoinBlock(resps[i].ids, {&s_ids[i], 1}));
      }
    }
    return Status::OK();
  };
  HAMMING_ASSIGN_OR_RETURN(mr::JobResult job_result, RunJob(job, cluster));
  plan_counters.Merge(job_result.counters);
  HAMMING_ASSIGN_OR_RETURN(result.pairs,
                           CollectJoinPairs(job_result.outputs));
  result.shuffle_bytes = plan_counters.Get(mr::kShuffleBytes);
  result.broadcast_bytes = plan_counters.Get(mr::kBroadcastBytes);
  return result;
}

}  // namespace hamming::mrjoin
