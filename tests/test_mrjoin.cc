// End-to-end tests of the MapReduce join plans: correctness against the
// centralized ground truth and the Section 5.4 shuffle-cost ordering.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dataset/sampling.h"
#include "hashing/spectral_hashing.h"
#include "knn/exact_knn.h"
#include "mrjoin/mrha.h"
#include "mrjoin/mrselect.h"
#include "mrjoin/pgbj.h"
#include "mrjoin/pmh.h"
#include "observability/metrics.h"

namespace hamming::mrjoin {
namespace {

class MrJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_data_ = GenerateDataset(DatasetKind::kNusWide, 300,
                              {.num_clusters = 16, .seed = 1});
    s_data_ = GenerateDataset(DatasetKind::kNusWide, 400,
                              {.num_clusters = 16, .seed = 1});
    cluster_ = std::make_unique<mr::Cluster>(
        mr::ClusterOptions{4, 2, 4});
  }

  // Ground truth: hash with the same trained function a plan uses is not
  // observable from outside, so truth is computed per plan by re-running
  // the hash pipeline deterministically (same seed => same model).
  std::vector<JoinPair> CentralizedTruth(std::size_t code_bits, std::size_t h,
                                         double sample_rate, uint64_t seed) {
    auto hash = TrainLikeMrha(code_bits, sample_rate, seed);
    auto pairs = NestedLoopsJoin(hash->HashAll(r_data_),
                                 hash->HashAll(s_data_), h);
    NormalizePairs(&pairs);
    return pairs;
  }

  // The hash model MRHA trains for these inputs.
  std::unique_ptr<SpectralHashing> TrainLikeMrha(std::size_t code_bits,
                                                 double sample_rate,
                                                 uint64_t seed) {
    SpectralHashingOptions opts;
    opts.code_bits = code_bits;
    return SpectralHashing::Train(MrhaSample(sample_rate, seed), opts)
        .ValueOrDie();
  }

  // The R-then-S sample MRHA's preprocessing draws (it trains the hash
  // and picks the pivots from it).
  FloatMatrix MrhaSample(double sample_rate, uint64_t seed) {
    Rng rng(seed);
    std::size_t r_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(sample_rate * r_data_.rows()));
    std::size_t s_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(sample_rate * s_data_.rows()));
    auto r_ids = ReservoirSampleIndices(r_data_.rows(), r_n, &rng);
    auto s_ids = ReservoirSampleIndices(s_data_.rows(), s_n, &rng);
    FloatMatrix sample(r_ids.size() + s_ids.size(), r_data_.cols());
    for (std::size_t i = 0; i < r_ids.size(); ++i) {
      auto src = r_data_.Row(r_ids[i]);
      std::copy(src.begin(), src.end(), sample.MutableRow(i).begin());
    }
    for (std::size_t i = 0; i < s_ids.size(); ++i) {
      auto src = s_data_.Row(s_ids[i]);
      std::copy(src.begin(), src.end(),
                sample.MutableRow(r_ids.size() + i).begin());
    }
    return sample;
  }

  // Makes S three copies of R under fresh ids (S tuple j is R tuple
  // j % |R|), so every S code repeats within its partition.
  void RepeatRAsS() {
    s_data_ = FloatMatrix(3 * r_data_.rows(), r_data_.cols());
    for (std::size_t j = 0; j < s_data_.rows(); ++j) {
      auto src = r_data_.Row(j % r_data_.rows());
      std::copy(src.begin(), src.end(), s_data_.MutableRow(j).begin());
    }
  }

  FloatMatrix r_data_;
  FloatMatrix s_data_;
  std::unique_ptr<mr::Cluster> cluster_;
};

TEST_F(MrJoinTest, MrhaOptionAMatchesCentralizedJoin) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kA;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  auto pairs = result->pairs;
  NormalizePairs(&pairs);
  auto truth = CentralizedTruth(opts.code_bits, opts.h, opts.sample_rate,
                                opts.seed);
  EXPECT_EQ(pairs, truth);
  EXPECT_GT(result->shuffle_bytes, 0);
  EXPECT_GT(result->broadcast_bytes, 0);
}

TEST_F(MrJoinTest, MrhaOptionBMatchesCentralizedJoin) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kB;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  auto pairs = result->pairs;
  NormalizePairs(&pairs);
  auto truth = CentralizedTruth(opts.code_bits, opts.h, opts.sample_rate,
                                opts.seed);
  EXPECT_EQ(pairs, truth);
}

TEST(JoinBlockCodec, RoundTripsIncludingSingleIdSides) {
  const std::vector<JoinBlock> blocks = {
      {{4, 1, 900}, {7}},
      {{3}, {2, 70000, 5}},
      {{0}, {std::numeric_limits<TupleId>::max()}},
      {{}, {}},
  };
  JoinBlock got{{99}, {99, 98}};  // stale buffers must be replaced
  for (const JoinBlock& b : blocks) {
    ASSERT_TRUE(DecodeJoinBlock(EncodeJoinBlock(b.r_ids, b.s_ids), &got).ok());
    EXPECT_EQ(got.r_ids, b.r_ids);
    EXPECT_EQ(got.s_ids, b.s_ids);
  }
}

TEST(JoinBlockCodec, CollectExpandsBlocksInOrderRThenS) {
  std::vector<std::vector<mr::Record>> outputs(3);
  const std::vector<TupleId> r1 = {4, 1}, s1 = {7, 2, 9};
  const std::vector<TupleId> r2 = {5}, s2 = {3};
  outputs[0].push_back({{}, EncodeJoinBlock(r1, s1)});
  outputs[2].push_back({{}, EncodeJoinBlock(r2, s2)});
  auto pairs = CollectJoinPairs(outputs);
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  const std::vector<JoinPair> want = {{4, 7}, {4, 2}, {4, 9}, {1, 7},
                                      {1, 2}, {1, 9}, {5, 3}};
  EXPECT_EQ(*pairs, want);
  EXPECT_EQ(pairs->capacity(), want.size());  // reserved from the headers
}

TEST(JoinBlockCodec, RejectsTruncatedOrOversizedHeaders) {
  const std::vector<TupleId> r = {1, 2}, s = {300};
  std::vector<uint8_t> truncated = EncodeJoinBlock(r, s);
  truncated.pop_back();  // half of the S id's two varint bytes
  std::vector<uint8_t> trailing = EncodeJoinBlock(r, s);
  trailing.push_back(0);
  const std::vector<std::vector<uint8_t>> bad = {
      {},                                  // no header at all
      {0x02},                              // |S ids| missing
      {0x02, 0x01, 0x01, 0x02},            // three ids promised, two given
      {0xff, 0xff, 0xff, 0xff, 0x0f, 0x01, 0x07},  // |R ids| ~ 4G
      {0x01, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x07},  // |S ids| ~ 4G
      {0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x03},  // id > 2^32 - 1
      truncated,
      trailing,
  };
  JoinBlock block;
  for (const auto& bytes : bad) {
    EXPECT_FALSE(DecodeJoinBlock(bytes, &block).ok());
    std::vector<std::vector<mr::Record>> outputs(1);
    outputs[0].push_back({{}, bytes});
    EXPECT_FALSE(CollectJoinPairs(outputs).ok());
  }
}

TEST(VectorTupleCodec, RoundTripsBitExactly) {
  const std::vector<VectorTuple> tuples = {
      {Table::kR, 0, {}},
      {Table::kS, 7, {1.5}},
      {Table::kR, std::numeric_limits<TupleId>::max(),
       {-0.0, 1e-308, -3.25, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}},
  };
  for (const VectorTuple& t : tuples) {
    const std::vector<uint8_t> bytes = EncodeVectorTuple(t);
    EXPECT_EQ(bytes.capacity(), bytes.size());  // reserved exactly
    auto got = DecodeVectorTuple(bytes);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->table, t.table);
    EXPECT_EQ(got->id, t.id);
    ASSERT_EQ(got->vec.size(), t.vec.size());
    EXPECT_EQ(EncodeVectorTuple(*got), bytes);  // NaN and -0.0 bit-exact
  }
  // Wire format: varint tag, id and length, then little-endian fixed64.
  BufferWriter w;
  w.PutVarint64(1);
  w.PutVarint64(300);
  w.PutVarint64(2);
  w.PutDouble(2.5);
  w.PutDouble(-1.0);
  EXPECT_EQ(EncodeVectorTuple({Table::kS, 300, {2.5, -1.0}}), w.buffer());
}

TEST(VectorTupleCodec, MatrixRecordsEncodeEachRow) {
  FloatMatrix m(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    m.At(i, 0) = static_cast<double>(i);
    m.At(i, 1) = -0.5 * static_cast<double>(i);
  }
  const std::vector<mr::Record> records = MatrixToRecords(m, Table::kS);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(records[i].key.empty());
    const auto row = m.Row(i);
    EXPECT_EQ(records[i].value,
              EncodeVectorTuple({Table::kS, static_cast<TupleId>(i),
                                 {row.begin(), row.end()}}));
  }
}

TEST(VectorTupleCodec, RejectsTruncatedOversizedOrTrailingInput) {
  const std::vector<uint8_t> valid =
      EncodeVectorTuple({Table::kR, 5, {1.0, 2.0}});
  std::vector<uint8_t> truncated = valid;
  truncated.pop_back();
  std::vector<uint8_t> trailing = valid;
  trailing.push_back(0);
  const std::vector<std::vector<uint8_t>> bad = {
      {},                  // no header at all
      {0x00, 0x05},        // length missing
      truncated,           // half a double short
      trailing,            // a byte past the last double
      {0x00, 0x05, 0xff, 0xff, 0xff, 0xff, 0x0f},  // length ~ 4G doubles
      {0x00, 0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
       0x01},              // length 2^64 - 1: n * 8 would wrap
      {0x02, 0x05, 0x00},  // table tag neither R nor S
      {0x00, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00},  // id > 2^32 - 1
  };
  for (const auto& bytes : bad) {
    EXPECT_FALSE(DecodeVectorTuple(bytes).ok());
  }
}

TEST(MrSelectCollect, RejectsAQueryPositionPastTheBatch) {
  const std::vector<TupleId> ids = {8, 3}, q1 = {1}, q5 = {5};
  std::vector<std::vector<mr::Record>> outputs(2);
  outputs[0].push_back({{}, EncodeJoinBlock(ids, q1)});
  auto ok = CollectSelectMatches(outputs, 3);
  ASSERT_TRUE(ok.ok()) << ok.status();
  const std::vector<std::vector<TupleId>> want = {{}, {3, 8}, {}};
  EXPECT_EQ(*ok, want);
  outputs[1].push_back({{}, EncodeJoinBlock(ids, q5)});
  auto bad = CollectSelectMatches(outputs, 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST_F(MrJoinTest, BlockAnswersIdenticalUnderFiniteShuffleBudget) {
  // The answer blocks are reduce output, so a spilling shuffle must
  // deliver the same pairs in the same order as the in-memory one.
  constexpr std::size_t kBudget = 4096;
  auto run = [&](auto join, auto opts, const char* plan) {
    SCOPED_TRACE(plan);
    mr::Cluster unlimited_cluster({4, 2, 4});
    mr::Cluster spill_cluster({4, 2, 4});
    auto unlimited = join(r_data_, s_data_, opts, &unlimited_cluster);
    opts.exec.shuffle_memory_bytes = kBudget;
    auto spilled = join(r_data_, s_data_, opts, &spill_cluster);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status();
    ASSERT_TRUE(spilled.ok()) << spilled.status();
    EXPECT_GT(spill_cluster.cumulative_counters()->Get(mr::kShuffleSpills), 0);
    EXPECT_FALSE(unlimited->pairs.empty());
    EXPECT_EQ(unlimited->pairs, spilled->pairs);  // not normalized
  };
  MrhaOptions a_opts;
  a_opts.num_partitions = 4;
  a_opts.option = MrhaOption::kA;
  MrhaOptions b_opts = a_opts;
  b_opts.option = MrhaOption::kB;
  PmhOptions pmh_opts;
  pmh_opts.num_partitions = 4;
  run(RunMrhaJoin, a_opts, "mrha-a");
  run(RunMrhaJoin, b_opts, "mrha-b");
  run(RunPmhJoin, pmh_opts, "pmh");
}

TEST_F(MrJoinTest, AnswerBlocksCountMatchedGroups) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  auto hash = TrainLikeMrha(opts.code_bits, opts.sample_rate, opts.seed);
  const auto r_codes = hash->HashAll(r_data_);
  const auto pairs = NestedLoopsJoin(r_codes, hash->HashAll(s_data_), opts.h);
  // Option A answers per S probe; Option B per post-join code group, and
  // only groups with both an R side and an S side produce a block.
  std::set<TupleId> matched_s;
  std::set<BinaryCode> matched_codes;
  for (const JoinPair& p : pairs) {
    matched_s.insert(p.s);
    matched_codes.insert(r_codes[p.r]);
  }
  ASSERT_FALSE(matched_codes.empty());
  ASSERT_LT(matched_codes.size(), pairs.size());  // blocks do batch pairs

  opts.option = MrhaOption::kA;
  auto a = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->answer_blocks, static_cast<int64_t>(matched_s.size()));
  opts.option = MrhaOption::kB;
  auto b = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->answer_blocks, static_cast<int64_t>(matched_codes.size()));
  EXPECT_EQ(a->pairs.size(), pairs.size());
  EXPECT_EQ(b->pairs.size(), pairs.size());
}

TEST_F(MrJoinTest, OptionBSearchesEachRepeatedProbeCodeOnce) {
  RepeatRAsS();
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kA;
  auto a = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(a.ok()) << a.status();
  obs::MetricsRegistry registry;
  opts.option = MrhaOption::kB;
  opts.exec.metrics = &registry;
  auto b = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(b.ok()) << b.status();

  auto b_pairs = b->pairs;
  NormalizePairs(&b_pairs);
  EXPECT_EQ(b_pairs.size(), b->pairs.size());  // no duplicate pairs
  auto a_pairs = a->pairs;
  NormalizePairs(&a_pairs);
  EXPECT_EQ(b_pairs, a_pairs);
  EXPECT_EQ(b_pairs, CentralizedTruth(opts.code_bits, opts.h,
                                      opts.sample_rate, opts.seed));

  // One H-Search per distinct S code (a code lives in one partition).
  auto hash = TrainLikeMrha(opts.code_bits, opts.sample_rate, opts.seed);
  const auto s_codes = hash->HashAll(s_data_);
  const std::set<BinaryCode> distinct(s_codes.begin(), s_codes.end());
  ASSERT_LT(distinct.size(), s_codes.size());
  const auto snap = registry.Snapshot();
  const auto it = snap.histograms.find("query.candidates");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, distinct.size());
}

// Records the cluster's cumulative reduce output records as each job's
// map phase starts, so consecutive entries bracket one job.
class ReduceOutputsAtJobStart final : public mr::JobObserver {
 public:
  explicit ReduceOutputsAtJobStart(mr::Cluster* cluster) : cluster_(cluster) {}
  void OnEvent(const mr::JobEvent& event) override {
    if (event.type == mr::JobEventType::kPhaseStart && event.detail == "map") {
      at_start.push_back(
          cluster_->cumulative_counters()->Get(mr::kReduceOutputRecords));
    }
  }
  std::vector<int64_t> at_start;

 private:
  mr::Cluster* cluster_;
};

TEST_F(MrJoinTest, OptionBJoinEmitsOneRecordPerPartitionAndCode) {
  RepeatRAsS();
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kB;
  mr::Cluster cluster({4, 2, 4});
  ReduceOutputsAtJobStart observer(&cluster);
  opts.exec.observer = &observer;
  auto b = RunMrhaJoin(r_data_, s_data_, opts, &cluster);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(observer.at_start.size(), 3u);  // build, join, post-join
  const int64_t join_outputs = observer.at_start[2] - observer.at_start[1];

  // The join job's partition of an S tuple is its code's pivot range; its
  // qualifying codes are the distinct R codes within h.
  auto hash = TrainLikeMrha(opts.code_bits, opts.sample_rate, opts.seed);
  const GrayPivots pivots = GrayPivots::FromSample(
      hash->HashAll(MrhaSample(opts.sample_rate, opts.seed)),
      opts.num_partitions);
  const auto r_codes = hash->HashAll(r_data_);
  const auto s_codes = hash->HashAll(s_data_);
  std::set<std::pair<std::size_t, BinaryCode>> groups;
  std::set<std::pair<TupleId, BinaryCode>> matches;
  for (std::size_t s = 0; s < s_codes.size(); ++s) {
    for (const BinaryCode& r_code : r_codes) {
      if (s_codes[s].Distance(r_code) > opts.h) continue;
      groups.insert({pivots.PartitionOf(s_codes[s]), r_code});
      matches.insert({static_cast<TupleId>(s), r_code});
    }
  }
  ASSERT_LT(groups.size(), matches.size());
  EXPECT_EQ(join_outputs, static_cast<int64_t>(groups.size()));
}

TEST_F(MrJoinTest, MrhaOptionBBroadcastsLessThanOptionA) {
  // Section 5.3: the leafless index of Option B is smaller to ship.
  MrhaOptions a_opts;
  a_opts.num_partitions = 4;
  a_opts.option = MrhaOption::kA;
  MrhaOptions b_opts = a_opts;
  b_opts.option = MrhaOption::kB;
  mr::Cluster cluster_a({4, 2, 4});
  mr::Cluster cluster_b({4, 2, 4});
  auto a = RunMrhaJoin(r_data_, s_data_, a_opts, &cluster_a).ValueOrDie();
  auto b = RunMrhaJoin(r_data_, s_data_, b_opts, &cluster_b).ValueOrDie();
  EXPECT_LT(b.broadcast_bytes, a.broadcast_bytes);
}

TEST_F(MrJoinTest, MrhaPhaseTimesAreMeasured) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok());
  const auto& t = result->phase_seconds;
  EXPECT_GE(t.sampling, 0.0);
  EXPECT_GT(t.learn_hash, 0.0);
  EXPECT_GT(t.index_build, 0.0);
  EXPECT_GT(t.join, 0.0);
}

TEST_F(MrJoinTest, MrhaRejectsEmptyOrMismatchedInputs) {
  MrhaOptions opts;
  EXPECT_FALSE(
      RunMrhaJoin(FloatMatrix(), s_data_, opts, cluster_.get()).ok());
  FloatMatrix wrong(10, 3);
  EXPECT_FALSE(RunMrhaJoin(wrong, s_data_, opts, cluster_.get()).ok());
}

TEST_F(MrJoinTest, PretrainedHashSkipsLearningPhase) {
  SpectralHashingOptions hopts;
  hopts.code_bits = 32;
  std::shared_ptr<const SpectralHashing> hash(
      SpectralHashing::Train(r_data_, hopts).ValueOrDie().release());
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.pretrained = hash;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->phase_seconds.learn_hash, 0.0);
  // Same hash centrally reproduces the pair set.
  auto truth = NestedLoopsJoin(hash->HashAll(r_data_),
                               hash->HashAll(s_data_), opts.h);
  NormalizePairs(&truth);
  auto pairs = result->pairs;
  NormalizePairs(&pairs);
  EXPECT_EQ(pairs, truth);
}

TEST_F(MrJoinTest, PmhMatchesItsOwnCentralizedTruth) {
  PmhOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  auto result = RunPmhJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  // PMH trains on an R-only sample; rebuild the same model for truth.
  Rng rng(opts.seed);
  std::size_t n = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.sample_rate * r_data_.rows()));
  auto ids = ReservoirSampleIndices(r_data_.rows(), n, &rng);
  auto sample = r_data_.GatherRows(ids);
  SpectralHashingOptions hopts;
  hopts.code_bits = opts.code_bits;
  auto hash = SpectralHashing::Train(sample, hopts).ValueOrDie();
  auto truth = NestedLoopsJoin(hash->HashAll(r_data_),
                               hash->HashAll(s_data_), opts.h);
  NormalizePairs(&truth);
  auto pairs = result->pairs;
  NormalizePairs(&pairs);
  EXPECT_EQ(pairs, truth);
}

TEST_F(MrJoinTest, PgbjProducesExactKnnResults) {
  PgbjOptions opts;
  opts.num_partitions = 4;
  opts.k = 5;
  opts.theta_slack = 3.0;
  auto result = RunPgbjJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), r_data_.rows());
  // Verify exactness on a handful of rows.
  double recall = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& row = result->rows[i];
    auto exact = ExactKnn(s_data_, r_data_.Row(row.r), opts.k);
    std::vector<std::size_t> got(row.neighbors.begin(), row.neighbors.end());
    recall += RecallAtK(exact, got);
  }
  recall /= 20.0;
  EXPECT_GT(recall, 0.95) << "PGBJ with generous slack should be ~exact";
}

TEST_F(MrJoinTest, ShuffleCostOrderingMatchesFigure7) {
  // The paper's headline distribution result: PGBJ's replicated vector
  // shuffle dominates PMH's broadcast multi-table index, which dominates
  // MRHA's compact HA-Index broadcast. At tiny scales the (shared) hash
  // model dominates everything, so this check uses a larger input.
  FloatMatrix r_big = GenerateDataset(DatasetKind::kNusWide, 2000,
                                      {.num_clusters = 16, .seed = 2});
  FloatMatrix s_big = GenerateDataset(DatasetKind::kNusWide, 2000,
                                      {.num_clusters = 16, .seed = 3});
  mr::Cluster c1({4, 2, 4}), c2({4, 2, 4}), c3({4, 2, 4});
  MrhaOptions mrha_opts;
  mrha_opts.num_partitions = 4;
  PmhOptions pmh_opts;
  pmh_opts.num_partitions = 4;
  PgbjOptions pgbj_opts;
  pgbj_opts.num_partitions = 4;
  pgbj_opts.k = 5;

  auto mrha = RunMrhaJoin(r_big, s_big, mrha_opts, &c1).ValueOrDie();
  auto pmh = RunPmhJoin(r_big, s_big, pmh_opts, &c2).ValueOrDie();
  auto pgbj = RunPgbjJoin(r_big, s_big, pgbj_opts, &c3).ValueOrDie();

  int64_t mrha_total = mrha.shuffle_bytes + mrha.broadcast_bytes;
  int64_t pmh_total = pmh.shuffle_bytes + pmh.broadcast_bytes;
  int64_t pgbj_total = pgbj.shuffle_bytes + pgbj.broadcast_bytes;
  EXPECT_GT(pgbj_total, pmh_total);
  EXPECT_GT(pmh_total, mrha_total);
}

}  // namespace
}  // namespace hamming::mrjoin
