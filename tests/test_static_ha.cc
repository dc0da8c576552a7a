// Structural tests specific to the Static HA-Index beyond the cross-index
// exactness sweep.
#include "index/static_ha_index.h"

#include <gtest/gtest.h>

#include "index/linear_scan.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;
using testutil::Search;

TEST(StaticHAIndex, SharedNodesAreFarFewerThanTuples) {
  // The Figure 2 claim: distinct segment values are shared, so the node
  // count is bounded by levels * 2^seg_bits, not by n.
  auto codes = RandomCodes(5000, 32, /*seed=*/3, /*clusters=*/16);
  StaticHAIndex index(StaticHAIndexOptions{8});
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_LE(index.NodeCount(), 4u * 256u);
  EXPECT_LT(index.NodeCount(), codes.size());
}

TEST(StaticHAIndex, PaperSegmentExample) {
  // Section 4.3: with 3-bit segments, tuples t2 = "011001100" and
  // t7 = "111001100" share the nodes for segments "001" and "100".
  auto codes = testutil::PaperTableS();
  StaticHAIndex index(StaticHAIndexOptions{3});
  ASSERT_TRUE(index.Build(codes).ok());
  // 3 levels x at most 8 distinct 3-bit values, but sharing keeps the
  // real count low; Figure 2 shows 12 nodes for this dataset.
  EXPECT_EQ(index.NodeCount(), 12u);
}

TEST(StaticHAIndex, RejectsBadSegmentWidth) {
  auto codes = RandomCodes(10, 32);
  StaticHAIndex zero(StaticHAIndexOptions{0});
  EXPECT_FALSE(zero.Build(codes).ok());
  StaticHAIndex wide(StaticHAIndexOptions{65});
  EXPECT_FALSE(wide.Build(codes).ok());
}

TEST(StaticHAIndex, RejectsDuplicateTupleId) {
  StaticHAIndex index(StaticHAIndexOptions{8});
  auto codes = RandomCodes(2, 32);
  ASSERT_TRUE(index.Insert(7, codes[0]).ok());
  EXPECT_TRUE(index.Insert(7, codes[1]).IsInvalidArgument());
}

TEST(StaticHAIndex, DeleteVerifiesCode) {
  StaticHAIndex index(StaticHAIndexOptions{8});
  auto codes = RandomCodes(2, 32, /*seed=*/5);
  ASSERT_TRUE(index.Insert(1, codes[0]).ok());
  EXPECT_TRUE(index.Delete(1, codes[1]).IsKeyError());
  EXPECT_TRUE(index.Delete(1, codes[0]).ok());
  EXPECT_EQ(index.size(), 0u);
}

TEST(StaticHAIndex, StaysExactUnderHeavyChurn) {
  StaticHAIndex index(StaticHAIndexOptions{8});
  LinearScanIndex truth;
  auto codes = RandomCodes(400, 32, /*seed=*/11, /*clusters=*/8);
  Rng rng(13);
  std::vector<bool> present(codes.size(), false);
  for (int op = 0; op < 2000; ++op) {
    TupleId id = static_cast<TupleId>(
        rng.UniformInt(0, static_cast<int64_t>(codes.size()) - 1));
    if (present[id]) {
      ASSERT_TRUE(index.Delete(id, codes[id]).ok());
      ASSERT_TRUE(truth.Delete(id, codes[id]).ok());
      present[id] = false;
    } else {
      ASSERT_TRUE(index.Insert(id, codes[id]).ok());
      ASSERT_TRUE(truth.Insert(id, codes[id]).ok());
      present[id] = true;
    }
    if (op % 101 == 0) {
      const BinaryCode& q = codes[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(codes.size()) - 1))];
      auto got = Search(index, q, 3);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(*got), Sorted(*Search(truth, q, 3))) << "op " << op;
    }
  }
}

TEST(StaticHAIndex, SegmentWidthSweepStaysExact) {
  auto codes = RandomCodes(300, 32, /*seed=*/17, /*clusters=*/8);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = RandomCodes(10, 32, /*seed=*/18, /*clusters=*/8);
  for (std::size_t seg : {1u, 2u, 3u, 5u, 8u, 16u, 32u}) {
    StaticHAIndex index(StaticHAIndexOptions{seg});
    ASSERT_TRUE(index.Build(codes).ok());
    for (const auto& q : queries) {
      auto got = Search(index, q, 4);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(*got), Sorted(*Search(truth, q, 4))) << "seg=" << seg;
    }
  }
}

TEST(StaticHAIndex, NonDivisibleSegmentWidth) {
  // 32 bits with 5-bit segments: last segment is 2 bits wide.
  auto codes = RandomCodes(100, 32, /*seed=*/21);
  StaticHAIndex index(StaticHAIndexOptions{5});
  ASSERT_TRUE(index.Build(codes).ok());
  auto got = Search(index, codes[0], 0);
  ASSERT_TRUE(got.ok());
  bool found = false;
  for (TupleId id : *got) {
    if (id == 0) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace hamming
