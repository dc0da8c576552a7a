#include "mrjoin/mrha.h"

#include <algorithm>

#include "observability/stopwatch.h"
#include "dataset/sampling.h"
#include "observability/query_stats.h"

namespace hamming::mrjoin {

namespace {

// Cache blob names used by the plan's jobs.
constexpr const char* kHashBlob = "mrha/hash";
constexpr const char* kPivotsBlob = "mrha/pivots";
constexpr const char* kIndexBlob = "mrha/global-index";

// Serializes the hash model + pivots for the distributed cache.
std::vector<uint8_t> PackHash(const SpectralHashing& hash) {
  BufferWriter w;
  hash.Serialize(&w);
  return w.Release();
}

std::vector<uint8_t> PackPivots(const GrayPivots& pivots) {
  BufferWriter w;
  pivots.Serialize(&w);
  return w.Release();
}

}  // namespace

Result<MrhaResult> RunMrhaJoin(const FloatMatrix& r_data,
                               const FloatMatrix& s_data,
                               const MrhaOptions& opts,
                               mr::Cluster* cluster) {
  if (r_data.empty() || s_data.empty()) {
    return Status::InvalidArgument("empty join input");
  }
  if (r_data.cols() != s_data.cols()) {
    return Status::InvalidArgument("R and S dimensionality differs");
  }
  MrhaResult result;
  mr::Counters plan_counters;

  // ---- Phase 1: preprocessing (driver) --------------------------------
  obs::Stopwatch watch;
  Rng rng(opts.seed);
  std::size_t r_sample_n = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.sample_rate *
                                  static_cast<double>(r_data.rows())));
  std::size_t s_sample_n = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.sample_rate *
                                  static_cast<double>(s_data.rows())));
  auto r_ids = ReservoirSampleIndices(r_data.rows(), r_sample_n, &rng);
  auto s_ids = ReservoirSampleIndices(s_data.rows(), s_sample_n, &rng);
  FloatMatrix sample(r_ids.size() + s_ids.size(), r_data.cols());
  for (std::size_t i = 0; i < r_ids.size(); ++i) {
    auto src = r_data.Row(r_ids[i]);
    std::copy(src.begin(), src.end(), sample.MutableRow(i).begin());
  }
  for (std::size_t i = 0; i < s_ids.size(); ++i) {
    auto src = s_data.Row(s_ids[i]);
    std::copy(src.begin(), src.end(),
              sample.MutableRow(r_ids.size() + i).begin());
  }
  result.phase_seconds.sampling = watch.ElapsedSeconds();

  watch.Restart();
  std::unique_ptr<SpectralHashing> trained;
  const SpectralHashing* hash_ptr = opts.pretrained.get();
  if (hash_ptr == nullptr) {
    SpectralHashingOptions hash_opts;
    hash_opts.code_bits = opts.code_bits;
    HAMMING_ASSIGN_OR_RETURN(trained,
                             SpectralHashing::Train(sample, hash_opts));
    hash_ptr = trained.get();
    result.phase_seconds.learn_hash = watch.ElapsedSeconds();
  }

  watch.Restart();
  std::vector<BinaryCode> sample_codes = hash_ptr->HashAll(sample);
  GrayPivots pivots =
      GrayPivots::FromSample(sample_codes, opts.num_partitions);
  cluster->cache()->Broadcast(kHashBlob, PackHash(*hash_ptr),
                              &plan_counters);
  cluster->cache()->Broadcast(kPivotsBlob, PackPivots(pivots),
                              &plan_counters);
  result.phase_seconds.pivot_selection = watch.ElapsedSeconds();

  // ---- Phase 2: global HA-Index build ----------------------------------
  watch.Restart();
  const bool leafless = opts.option == MrhaOption::kB;

  mr::JobSpec build_job;
  build_job.name = "mrha-build";
  // Keys are partition ids; route each to its own reducer.
  build_job.options = PlanJobOptions(opts, PartitionKeyRouter());
  build_job.input_splits =
      mr::SplitEvenly(MatrixToRecords(r_data, Table::kR),
                      cluster->total_slots());
  // Mapper: vector -> (partition, code record). The hash and pivots come
  // from the distributed cache exactly as Section 5.2 describes.
  const GrayPivots* pivots_ptr = &pivots;
  build_job.map_fn = [hash_ptr, pivots_ptr](const mr::Record& rec,
                                            mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
    uint32_t part =
        static_cast<uint32_t>(pivots_ptr->PartitionOf(ct.code));
    out->Emit(PartitionKey(part), EncodeCodeTuple(ct));
    return Status::OK();
  };
  DynamicHAIndexOptions index_opts = opts.index;
  index_opts.store_tuple_ids = !leafless;
  build_job.reduce_fn = [index_opts](
                            const std::vector<uint8_t>& key,
                            const std::vector<std::vector<uint8_t>>& values,
                            mr::Emitter* out) -> Status {
    DynamicHAIndex local(index_opts);
    std::vector<BinaryCode> codes;
    std::vector<TupleId> ids;
    codes.reserve(values.size());
    for (const auto& v : values) {
      HAMMING_ASSIGN_OR_RETURN(CodeTuple t, DecodeCodeTuple(v));
      codes.push_back(t.code);
      ids.push_back(t.id);
    }
    HAMMING_RETURN_NOT_OK(local.BuildWithIds(ids, codes));
    BufferWriter w;
    local.Serialize(&w);
    out->Emit(key, w.Release());
    return Status::OK();
  };
  HAMMING_ASSIGN_OR_RETURN(mr::JobResult build_result,
                           RunJob(build_job, cluster));
  plan_counters.Merge(build_result.counters);

  // Driver-side merge of the local indexes into the global HA-Index.
  DynamicHAIndex global_index(index_opts);
  for (const auto& part : build_result.outputs) {
    for (const auto& rec : part) {
      BufferReader r(rec.value);
      HAMMING_ASSIGN_OR_RETURN(DynamicHAIndex local,
                               DynamicHAIndex::Deserialize(&r));
      HAMMING_RETURN_NOT_OK(global_index.MergeFrom(local));
    }
  }
  BufferWriter index_writer;
  global_index.Serialize(&index_writer);
  cluster->cache()->Broadcast(kIndexBlob, index_writer.Release(),
                              &plan_counters);
  result.phase_seconds.index_build = watch.ElapsedSeconds();

  // ---- Phase 3: Hamming-join -------------------------------------------
  watch.Restart();
  const DynamicHAIndex* index_ptr = &global_index;
  const std::size_t h = opts.h;

  mr::JobSpec join_job;
  join_job.name = "mrha-join";
  join_job.options = PlanJobOptions(opts, PartitionKeyRouter());
  join_job.input_splits = mr::SplitEvenly(
      MatrixToRecords(s_data, Table::kS), cluster->total_slots());
  join_job.map_fn = [hash_ptr, pivots_ptr](const mr::Record& rec,
                                           mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
    uint32_t part =
        static_cast<uint32_t>(pivots_ptr->PartitionOf(ct.code));
    out->Emit(PartitionKey(part), EncodeCodeTuple(ct));
    return Status::OK();
  };

  // Per-probe H-Search work histograms ("query.candidates", ...) when the
  // caller attached a metrics registry; each S tuple's search is one sample.
  obs::MetricsRegistry* metrics = opts.exec.metrics;
  const obs::QueryStatsHistograms query_hists =
      obs::QueryStatsHistograms::Register(metrics);

  if (opts.option == MrhaOption::kA) {
    // Reducers H-Search the broadcast index and emit each probe's answer
    // directly, as one join block (matching r ids × {s}).
    join_job.reduce_fn =
        [index_ptr, h, metrics, query_hists](
            const std::vector<uint8_t>&,
            const std::vector<std::vector<uint8_t>>& values,
            mr::Emitter* out) -> Status {
      // Probe the broadcast index in coalesced batches; each response
      // still carries its own per-query work counters for the
      // histograms (one sample per S tuple, as before).
      constexpr std::size_t kProbeBatch = 64;
      std::vector<TupleId> s_ids;
      std::vector<QueryRequest> reqs;
      s_ids.reserve(kProbeBatch);
      reqs.reserve(kProbeBatch);
      std::vector<QueryResponse> resps;
      for (std::size_t begin = 0; begin < values.size();
           begin += kProbeBatch) {
        const std::size_t count =
            std::min(kProbeBatch, values.size() - begin);
        s_ids.clear();
        reqs.clear();
        for (std::size_t i = 0; i < count; ++i) {
          HAMMING_ASSIGN_OR_RETURN(CodeTuple t,
                                   DecodeCodeTuple(values[begin + i]));
          s_ids.push_back(t.id);
          reqs.push_back(QueryRequest::Range(std::move(t.code), h));
        }
        resps.resize(count);
        HAMMING_RETURN_NOT_OK(index_ptr->SearchBatch(reqs, resps));
        for (std::size_t i = 0; i < count; ++i) {
          HAMMING_RETURN_NOT_OK(resps[i].status);
          if (metrics != nullptr) query_hists.Observe(metrics, resps[i].stats);
          if (resps[i].ids.empty()) continue;
          out->Emit({}, EncodeJoinBlock(resps[i].ids, {&s_ids[i], 1}));
        }
      }
      return Status::OK();
    };
    HAMMING_ASSIGN_OR_RETURN(mr::JobResult join_result,
                             RunJob(join_job, cluster));
    plan_counters.Merge(join_result.counters);
    result.answer_blocks = join_result.counters.Get(mr::kReduceOutputRecords);
    HAMMING_ASSIGN_OR_RETURN(result.pairs,
                             CollectJoinPairs(join_result.outputs));
  } else {
    // Option B: reducers emit (qualifying R code, s id); a post-processing
    // hash join resolves codes to R tuple ids.
    join_job.reduce_fn =
        [index_ptr, h, metrics, query_hists](
            const std::vector<uint8_t>&,
            const std::vector<std::vector<uint8_t>>& values,
            mr::Emitter* out) -> Status {
      for (const auto& v : values) {
        HAMMING_ASSIGN_OR_RETURN(CodeTuple t, DecodeCodeTuple(v));
        obs::QueryStats qstats;
        HAMMING_ASSIGN_OR_RETURN(
            std::vector<BinaryCode> matches,
            index_ptr->SearchCodes(t.code, h,
                                   metrics != nullptr ? &qstats : nullptr));
        if (metrics != nullptr) query_hists.Observe(metrics, qstats);
        const std::vector<uint8_t> value = EncodeCodeTuple(t);
        for (const BinaryCode& code : matches) {
          BufferWriter w;
          code.Serialize(&w);
          out->Emit(w.Release(), value);
        }
      }
      return Status::OK();
    };
    HAMMING_ASSIGN_OR_RETURN(mr::JobResult join_result,
                             RunJob(join_job, cluster));
    plan_counters.Merge(join_result.counters);

    // Post-join (MapReduce hash-join of Section 5.3 / [23]): R tuples are
    // re-hashed to codes on the map side and matched to qualifying codes
    // on the key.
    mr::JobSpec post_job;
    post_job.name = "mrha-postjoin";
    // Keys are serialized codes; the default hash partitioner routes them.
    post_job.options = PlanJobOptions(opts, nullptr);
    post_job.input_splits = mr::SplitEvenly(
        MatrixToRecords(r_data, Table::kR), cluster->total_slots());
    // Qualifying (code, s) records from the join job feed extra splits.
    for (auto& part : join_result.outputs) {
      if (!part.empty()) post_job.input_splits.push_back(std::move(part));
    }
    post_job.map_fn = [hash_ptr](const mr::Record& rec,
                                 mr::Emitter* out) -> Status {
      if (rec.key.empty()) {
        // R-side vector record: key by its code.
        HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
        CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
        BufferWriter w;
        ct.code.Serialize(&w);
        out->Emit(w.Release(), EncodeCodeTuple(ct));
      } else {
        // Already keyed (code, s-tuple) record from phase 3.
        out->Emit(rec.key, rec.value);
      }
      return Status::OK();
    };
    post_job.reduce_fn =
        [](const std::vector<uint8_t>&,
           const std::vector<std::vector<uint8_t>>& values,
           mr::Emitter* out) -> Status {
      std::vector<TupleId> r_ids;
      std::vector<TupleId> s_ids;
      for (const auto& v : values) {
        HAMMING_ASSIGN_OR_RETURN(CodeTuple t, DecodeCodeTuple(v));
        if (t.table == Table::kR) {
          r_ids.push_back(t.id);
        } else {
          s_ids.push_back(t.id);
        }
      }
      // One block per code group with both sides: the group's answer is
      // exactly r_ids × s_ids.
      if (!r_ids.empty() && !s_ids.empty()) {
        out->Emit({}, EncodeJoinBlock(r_ids, s_ids));
      }
      return Status::OK();
    };
    HAMMING_ASSIGN_OR_RETURN(mr::JobResult post_result,
                             RunJob(post_job, cluster));
    plan_counters.Merge(post_result.counters);
    result.answer_blocks = post_result.counters.Get(mr::kReduceOutputRecords);
    HAMMING_ASSIGN_OR_RETURN(result.pairs,
                             CollectJoinPairs(post_result.outputs));
  }
  result.phase_seconds.join = watch.ElapsedSeconds();

  result.shuffle_bytes = plan_counters.Get(mr::kShuffleBytes);
  result.broadcast_bytes = plan_counters.Get(mr::kBroadcastBytes);
  return result;
}

}  // namespace hamming::mrjoin
