// End-to-end integration sweeps across module boundaries: the full
// feature-vectors -> hash -> index -> query pipeline, the distributed
// select across partition counts, and persistence in the middle of a
// workflow.
#include <gtest/gtest.h>

#include <cstdio>

#include "dataset/generators.h"
#include "dataset/scale.h"
#include "hashing/spectral_hashing.h"
#include "index/linear_scan.h"
#include "mrjoin/mrselect.h"
#include "ops/operators.h"
#include "storage/persist.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::Search;

// ---------------------------------------------------------------------------
// Distributed select across partition counts.
// ---------------------------------------------------------------------------

class MrSelectPartitionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MrSelectPartitionTest, PartitionCountNeverChangesAnswers) {
  const std::size_t partitions = GetParam();
  FloatMatrix data = GenerateDataset(DatasetKind::kNusWide, 400,
                                     {.num_clusters = 8, .seed = 4});
  FloatMatrix queries = GenerateQueries(DatasetKind::kNusWide, 5,
                                        {.num_clusters = 8, .seed = 4});
  mr::Cluster cluster({partitions, 2, 4});
  mrjoin::MrSelectOptions opts;
  opts.num_partitions = partitions;
  auto result = mrjoin::RunMrSelect(data, queries, opts, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();

  // Reference run with one partition.
  mr::Cluster ref_cluster({1, 2, 2});
  mrjoin::MrSelectOptions ref_opts = opts;
  ref_opts.num_partitions = 1;
  auto ref = mrjoin::RunMrSelect(data, queries, ref_opts, &ref_cluster);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(result->matches, ref->matches);
}

INSTANTIATE_TEST_SUITE_P(Partitions, MrSelectPartitionTest,
                         ::testing::Values(1u, 2u, 5u, 16u));

// ---------------------------------------------------------------------------
// Full pipeline: generate -> scale -> hash -> table -> operators.
// ---------------------------------------------------------------------------

TEST(Integration, ScaledDatasetThroughFullPipeline) {
  auto base = GenerateDataset(DatasetKind::kDbpedia, 150);
  auto scaled = ScaleDataset(base, 3);
  SpectralHashingOptions hopts;
  hopts.code_bits = 32;
  auto hash = std::shared_ptr<const SimilarityHash>(
      SpectralHashing::Train(base, hopts).ValueOrDie().release());
  auto table =
      HammingTable::FromFeatures(std::move(scaled), hash).ValueOrDie();
  EXPECT_EQ(table.size(), 450u);

  // Every base row's scaled copy of itself is its own h=0 match.
  auto q = table.codes()[10];
  auto got = ops::HammingSelect(table, q, 0, {}).ValueOrDie();
  bool found = false;
  for (TupleId id : got) {
    if (id == 10) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Integration, PersistenceMidWorkflow) {
  // Build, save, reload, continue inserting, query — the index must
  // behave as if never serialized.
  auto codes = testutil::RandomCodes(300, 32, /*seed=*/21, /*clusters=*/8);
  DynamicHAIndex index;
  std::vector<BinaryCode> first(codes.begin(), codes.begin() + 200);
  ASSERT_TRUE(index.Build(first).ok());
  const char* path = "/tmp/hammingdb_test_midflow.hdb";
  ASSERT_TRUE(storage::SaveIndex(path, index).ok());
  auto reloaded = storage::LoadIndex(path).ValueOrDie();
  std::remove(path);
  for (std::size_t i = 200; i < 300; ++i) {
    ASSERT_TRUE(
        reloaded.Insert(static_cast<TupleId>(i), codes[i]).ok());
  }
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = testutil::RandomCodes(10, 32, /*seed=*/22, /*clusters=*/8);
  for (const auto& q : queries) {
    EXPECT_EQ(Sorted(*Search(reloaded, q, 3)), Sorted(*Search(truth, q, 3)));
  }
}

// ---------------------------------------------------------------------------
// Code-length sweep through the whole centralized stack.
// ---------------------------------------------------------------------------

class CodeLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodeLengthTest, EndToEndExactAtEveryCodeLength) {
  const std::size_t bits = GetParam();
  auto data = GenerateDataset(DatasetKind::kNusWide, 300,
                              {.num_clusters = 8, .seed = 6});
  SpectralHashingOptions hopts;
  hopts.code_bits = bits;
  auto hash = std::shared_ptr<const SimilarityHash>(
      SpectralHashing::Train(data, hopts).ValueOrDie().release());
  auto table =
      HammingTable::FromFeatures(std::move(data), hash).ValueOrDie();
  EXPECT_EQ(table.code_bits(), bits);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(table.codes()).ok());
  for (std::size_t qi = 0; qi < 5; ++qi) {
    const auto& q = table.codes()[qi * 31];
    auto got = ops::HammingSelect(table, q, 3, {}).ValueOrDie();
    EXPECT_EQ(Sorted(got), Sorted(*Search(truth, q, 3))) << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CodeLengthTest,
                         ::testing::Values(16u, 32u, 48u, 64u, 96u, 128u));

}  // namespace
}  // namespace hamming
