// Concurrency and distance-reporting tests.
#include <gtest/gtest.h>

#include <atomic>

#include "common/threadpool.h"
#include "index/dynamic_ha_index.h"
#include "index/linear_scan.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;
using testutil::RunOne;
using testutil::Search;

TEST(Concurrency, ParallelSearchesOnSharedIndexAreConsistent) {
  // A built DHA-Index is immutable under Search; many threads probing it
  // concurrently must all see exact results.
  auto codes = RandomCodes(2000, 32, /*seed=*/3, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = RandomCodes(64, 32, /*seed=*/4, /*clusters=*/8);
  std::vector<std::vector<TupleId>> expect(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect[q] = Sorted(*Search(truth, queries[q], 3));
  }

  ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  ParallelFor(&pool, queries.size() * 8, [&](std::size_t i) {
    std::size_t q = i % queries.size();
    auto got = Search(index, queries[q], 3);
    if (!got.ok() || Sorted(*got) != expect[q]) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, ParallelSearchesOnStaticIndex) {
  // The SHA group cache is rebuilt lazily; force it before threading.
  auto codes = RandomCodes(1000, 32, /*seed=*/5, /*clusters=*/8);
  StaticHAIndex index(StaticHAIndexOptions{8});
  ASSERT_TRUE(index.Build(codes).ok());
  (void)Search(index, codes[0], 3);  // warm the lazy group cache
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());

  ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  ParallelFor(&pool, 200, [&](std::size_t i) {
    const auto& q = codes[(i * 37) % codes.size()];
    auto got = Search(index, q, 3);
    auto expect = Search(truth, q, 3);
    if (!got.ok() || Sorted(*got) != Sorted(*expect)) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SearchWithDistances, ReportsExactDistances) {
  auto codes = RandomCodes(500, 32, /*seed=*/7, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = RandomCodes(10, 32, /*seed=*/8, /*clusters=*/8);
  for (const auto& q : queries) {
    auto got = RunOne(index, QueryRequest::Range(q, 4)).ValueOrDie();
    ASSERT_EQ(got.distances.size(), got.ids.size());
    for (std::size_t j = 0; j < got.ids.size(); ++j) {
      EXPECT_EQ(got.distances[j], codes[got.ids[j]].Distance(q))
          << "id " << got.ids[j];
      EXPECT_LE(got.distances[j], 4u);
    }
    EXPECT_EQ(Sorted(got.ids), Sorted(*Search(truth, q, 4)));
  }
}

TEST(SearchWithDistances, CoversInsertBuffer) {
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 1000;
  DynamicHAIndex index(opts);
  auto codes = RandomCodes(50, 32, /*seed=*/9);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<TupleId>(i), codes[i]).ok());
  }
  auto got = RunOne(index, QueryRequest::Range(codes[7], 0)).ValueOrDie();
  ASSERT_FALSE(got.ids.empty());
  bool found = false;
  for (std::size_t j = 0; j < got.ids.size(); ++j) {
    if (got.ids[j] == 7) {
      found = true;
      EXPECT_EQ(got.distances[j], 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SearchWithDistances, LeaflessRejected) {
  DynamicHAIndexOptions opts;
  opts.store_tuple_ids = false;
  DynamicHAIndex index(opts);
  auto codes = RandomCodes(20, 32);
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_TRUE(Search(index, codes[0], 3).status().IsNotImplemented());
}

}  // namespace
}  // namespace hamming
