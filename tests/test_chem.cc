#include "chem/tanimoto.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hamming {
namespace {

TEST(Tanimoto, KnownSimilarities) {
  using chem::TanimotoSimilarity;
  auto a = BinaryCode::FromString("11110000").ValueOrDie();
  auto b = BinaryCode::FromString("11000000").ValueOrDie();
  EXPECT_DOUBLE_EQ(TanimotoSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(TanimotoSimilarity(a, b), 2.0 / 4.0);
  auto zero = BinaryCode::FromString("00000000").ValueOrDie();
  EXPECT_DOUBLE_EQ(TanimotoSimilarity(zero, zero), 1.0);
  EXPECT_DOUBLE_EQ(TanimotoSimilarity(a, zero), 0.0);
}

TEST(Tanimoto, HammingBoundIsValid) {
  // For every random pair: T >= t must imply distance <= bound(t).
  Rng rng(5);
  auto fps = chem::GenerateFingerprints(200, 166, 8, 3);
  for (int trial = 0; trial < 500; ++trial) {
    const auto& a = fps[static_cast<std::size_t>(rng.UniformInt(0, 199))];
    const auto& b = fps[static_cast<std::size_t>(rng.UniformInt(0, 199))];
    double t = chem::TanimotoSimilarity(a, b);
    if (t <= 0.0) continue;
    std::size_t bound =
        chem::TanimotoHammingBound(t, a.PopCount(), b.PopCount());
    EXPECT_LE(a.Distance(b), bound);
  }
}

TEST(Tanimoto, SearcherMatchesLinearScan) {
  auto fps = chem::GenerateFingerprints(1500, 166, 16, 7);
  auto searcher = chem::TanimotoSearcher::Build(fps).ValueOrDie();
  EXPECT_GT(searcher.num_buckets(), 1u);
  Rng rng(9);
  for (double t : {0.95, 0.85, 0.7}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto& q = fps[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(fps.size()) - 1))];
      auto got = searcher.Search(q, t).ValueOrDie();
      std::vector<TupleId> expect;
      for (std::size_t i = 0; i < fps.size(); ++i) {
        if (chem::TanimotoSimilarity(q, fps[i]) >= t - 1e-12) {
          expect.push_back(static_cast<TupleId>(i));
        }
      }
      EXPECT_EQ(got, expect) << "t=" << t;
    }
  }
}

TEST(Tanimoto, ThresholdValidation) {
  auto fps = chem::GenerateFingerprints(10);
  auto searcher = chem::TanimotoSearcher::Build(fps).ValueOrDie();
  EXPECT_FALSE(searcher.Search(fps[0], 0.0).ok());
  EXPECT_FALSE(searcher.Search(fps[0], 1.5).ok());
  auto got = searcher.Search(fps[0], 1.0).ValueOrDie();
  EXPECT_FALSE(got.empty());  // the query itself qualifies
}

TEST(Tanimoto, FingerprintGeneratorShape) {
  auto fps = chem::GenerateFingerprints(100, 166, 8, 1);
  ASSERT_EQ(fps.size(), 100u);
  for (const auto& fp : fps) {
    EXPECT_EQ(fp.size(), 166u);
    EXPECT_GT(fp.PopCount(), 5u);
    EXPECT_LT(fp.PopCount(), 100u);
  }
}

}  // namespace
}  // namespace hamming
