// Structural and lifecycle tests specific to the Dynamic HA-Index beyond
// the cross-index exactness sweep in test_indexes.cc.
#include "index/dynamic_ha_index.h"

#include <gtest/gtest.h>

#include "index/linear_scan.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;
using testutil::Search;

TEST(DynamicHAIndex, StatsReflectStructure) {
  auto codes = RandomCodes(500, 32, /*seed=*/3, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto stats = index.Stats();
  EXPECT_GT(stats.num_leaves, 0u);
  EXPECT_LE(stats.num_leaves, 500u);
  EXPECT_GT(stats.num_internal_nodes, 0u);
  EXPECT_GT(stats.num_edges, 0u);
  EXPECT_GT(stats.depth, 1u);
  EXPECT_LE(stats.depth, index.options().max_depth + 1);
}

TEST(DynamicHAIndex, SublinearInternalNodesOnClusteredData) {
  // Section 4.7: on favourable (clustered) data the internal structure
  // stays far below one node per tuple.
  auto codes = RandomCodes(4000, 32, /*seed=*/5, /*clusters=*/16,
                           /*flip_bits=*/3);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto stats = index.Stats();
  EXPECT_LT(stats.num_internal_nodes, stats.num_leaves)
      << "internal nodes should be shared across leaves";
}

TEST(DynamicHAIndex, FullSpaceExample) {
  // Example 4: indexing all 2^L codes of a tiny space. Every distinct
  // code must be a leaf and searches must be exact.
  std::vector<BinaryCode> codes;
  for (uint64_t v = 0; v < 8; ++v) {
    codes.push_back(BinaryCode::FromUint64(v, 3).ValueOrDie());
  }
  DynamicHAIndexOptions opts;
  opts.window = 2;
  DynamicHAIndex index(opts);
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_EQ(index.Stats().num_leaves, 8u);
  for (uint64_t v = 0; v < 8; ++v) {
    auto got = Search(index, codes[v], 1);
    ASSERT_TRUE(got.ok());
    // Distance <= 1 from a 3-bit code: itself + 3 neighbours.
    EXPECT_EQ(got->size(), 4u) << "v=" << v;
  }
}

TEST(DynamicHAIndex, SerializationPreservesSearchResults) {
  auto codes = RandomCodes(300, 32, /*seed=*/11, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  // Leave some inserts in the buffer to exercise buffer serialization.
  ASSERT_TRUE(index.Insert(1000, codes[0]).ok());

  BufferWriter w;
  index.Serialize(&w);
  BufferReader r(w.buffer());
  auto back = DynamicHAIndex::Deserialize(&r).ValueOrDie();

  auto queries = RandomCodes(10, 32, /*seed=*/77, /*clusters=*/8);
  for (const auto& q : queries) {
    auto a = Search(index, q, 3);
    auto b = Search(back, q, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Sorted(*a), Sorted(*b));
  }
  EXPECT_EQ(back.size(), index.size());
}

TEST(DynamicHAIndex, SerializationCompactsDeadNodes) {
  auto codes = RandomCodes(200, 32, /*seed=*/13, /*clusters=*/4);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  // Delete half the tuples; serialized form must stay consistent.
  for (TupleId id = 0; id < 100; ++id) {
    ASSERT_TRUE(index.Delete(id, codes[id]).ok());
  }
  BufferWriter w;
  index.Serialize(&w);
  BufferReader r(w.buffer());
  auto back = DynamicHAIndex::Deserialize(&r).ValueOrDie();
  EXPECT_EQ(back.size(), 100u);
  auto got = Search(back, codes[150], 0);
  ASSERT_TRUE(got.ok());
  bool found = false;
  for (TupleId id : *got) {
    if (id == 150) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DynamicHAIndex, MergePreservesAllTuples) {
  // The Section 5.2 global merge: two local indexes over disjoint id
  // ranges must answer like one index over the union.
  auto codes_a = RandomCodes(150, 32, /*seed=*/21, /*clusters=*/6);
  auto codes_b = RandomCodes(150, 32, /*seed=*/22, /*clusters=*/6);
  DynamicHAIndex a, b;
  std::vector<TupleId> ids_a(150), ids_b(150);
  for (std::size_t i = 0; i < 150; ++i) {
    ids_a[i] = static_cast<TupleId>(i);
    ids_b[i] = static_cast<TupleId>(1000 + i);
  }
  ASSERT_TRUE(a.BuildWithIds(ids_a, codes_a).ok());
  ASSERT_TRUE(b.BuildWithIds(ids_b, codes_b).ok());
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.size(), 300u);

  LinearScanIndex truth;
  std::vector<BinaryCode> all = codes_a;
  all.insert(all.end(), codes_b.begin(), codes_b.end());
  ASSERT_TRUE(truth.Build(all).ok());

  auto queries = RandomCodes(15, 32, /*seed=*/99, /*clusters=*/6);
  for (const auto& q : queries) {
    auto got = Search(a, q, 3);
    ASSERT_TRUE(got.ok());
    auto expect = Search(truth, q, 3);
    // Translate expected ids: rows >= 150 belong to b's 1000+ range.
    std::vector<TupleId> expect_ids;
    for (TupleId id : *expect) {
      expect_ids.push_back(id < 150 ? id : 1000 + (id - 150));
    }
    EXPECT_EQ(Sorted(*got), Sorted(expect_ids));
  }
}

TEST(DynamicHAIndex, MergeRejectsMismatchedConfigs) {
  auto codes = RandomCodes(20, 32, /*seed=*/31);
  DynamicHAIndex a;
  DynamicHAIndexOptions leafless;
  leafless.store_tuple_ids = false;
  DynamicHAIndex b(leafless);
  ASSERT_TRUE(a.Build(codes).ok());
  ASSERT_TRUE(b.Build(codes).ok());
  EXPECT_FALSE(a.MergeFrom(b).ok());

  DynamicHAIndex c;
  auto short_codes = RandomCodes(20, 16, /*seed=*/32);
  ASSERT_TRUE(c.Build(short_codes).ok());
  EXPECT_FALSE(a.MergeFrom(c).ok());
}

TEST(DynamicHAIndex, LeaflessModeSearchCodes) {
  auto codes = RandomCodes(200, 32, /*seed=*/41, /*clusters=*/8);
  DynamicHAIndexOptions opts;
  opts.store_tuple_ids = false;
  DynamicHAIndex index(opts);
  ASSERT_TRUE(index.Build(codes).ok());
  // Search by id is unavailable...
  EXPECT_TRUE(Search(index, codes[0], 3).status().IsNotImplemented());
  EXPECT_TRUE(index.Delete(0, codes[0]).IsNotImplemented());
  // ...but SearchCodes returns exactly the qualifying distinct codes.
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = RandomCodes(10, 32, /*seed=*/42, /*clusters=*/8);
  for (const auto& q : queries) {
    auto got = index.SearchCodes(q, 3).ValueOrDie();
    std::vector<std::string> got_str;
    for (const auto& c : got) got_str.push_back(c.ToString());
    std::sort(got_str.begin(), got_str.end());
    got_str.erase(std::unique(got_str.begin(), got_str.end()),
                  got_str.end());

    auto ids = Search(truth, q, 3).ValueOrDie();
    std::vector<std::string> expect_str;
    for (TupleId id : ids) expect_str.push_back(codes[id].ToString());
    std::sort(expect_str.begin(), expect_str.end());
    expect_str.erase(std::unique(expect_str.begin(), expect_str.end()),
                     expect_str.end());
    EXPECT_EQ(got_str, expect_str);
  }
}

TEST(DynamicHAIndex, LeaflessUsesLessMemoryThanLeafful) {
  // Table 4's DHA "28/11" column: dropping leaf hash tables shrinks the
  // footprint substantially.
  auto codes = RandomCodes(3000, 32, /*seed=*/51, /*clusters=*/16);
  DynamicHAIndex leafful;
  DynamicHAIndexOptions lopts;
  lopts.store_tuple_ids = false;
  DynamicHAIndex leafless(lopts);
  ASSERT_TRUE(leafful.Build(codes).ok());
  ASSERT_TRUE(leafless.Build(codes).ok());
  EXPECT_LT(leafless.Memory().total(), leafful.Memory().total());
}

TEST(DynamicHAIndex, BufferFlushKeepsAnswersCorrect) {
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 64;
  DynamicHAIndex index(opts);
  LinearScanIndex truth;
  auto codes = RandomCodes(500, 32, /*seed=*/61, /*clusters=*/8);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<TupleId>(i), codes[i]).ok());
    ASSERT_TRUE(truth.Insert(static_cast<TupleId>(i), codes[i]).ok());
    if (i % 97 == 0) {
      auto got = Search(index, codes[i / 2], 3);
      auto expect = Search(truth, codes[i / 2], 3);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(*got), Sorted(*expect)) << "after " << i;
    }
  }
  EXPECT_EQ(index.size(), 500u);
}

TEST(DynamicHAIndex, DeleteEverythingLeavesEmptyIndex) {
  auto codes = RandomCodes(100, 32, /*seed=*/71, /*clusters=*/4);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  for (TupleId id = 0; id < 100; ++id) {
    ASSERT_TRUE(index.Delete(id, codes[id]).ok()) << id;
  }
  EXPECT_EQ(index.size(), 0u);
  auto got = Search(index, codes[0], 32);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  auto stats = index.Stats();
  EXPECT_EQ(stats.num_leaves, 0u);
}

TEST(DynamicHAIndex, DualTreeJoinMatchesNestedLoops) {
  auto r_codes = RandomCodes(250, 32, /*seed=*/91, /*clusters=*/8);
  auto s_codes = RandomCodes(300, 32, /*seed=*/92, /*clusters=*/8);
  DynamicHAIndex r_index, s_index;
  ASSERT_TRUE(r_index.Build(r_codes).ok());
  ASSERT_TRUE(s_index.Build(s_codes).ok());
  for (std::size_t h : {0u, 2u, 4u}) {
    auto pairs = r_index.JoinWith(s_index, h).ValueOrDie();
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<JoinPair> truth;
    for (std::size_t i = 0; i < r_codes.size(); ++i) {
      for (std::size_t j = 0; j < s_codes.size(); ++j) {
        if (r_codes[i].WithinDistance(s_codes[j], h)) {
          truth.push_back(
              {static_cast<TupleId>(i), static_cast<TupleId>(j)});
        }
      }
    }
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(pairs, truth) << "h=" << h;
  }
}

TEST(DynamicHAIndex, DualTreeJoinHandlesBufferedInserts) {
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 1000;  // keep everything buffered
  DynamicHAIndex r_index, s_index(opts);
  auto r_codes = RandomCodes(100, 32, /*seed=*/93, /*clusters=*/4);
  auto s_codes = RandomCodes(100, 32, /*seed=*/94, /*clusters=*/4);
  ASSERT_TRUE(r_index.Build(r_codes).ok());
  // Half of S is bulk-built, half stays in the insert buffer.
  std::vector<BinaryCode> s_half(s_codes.begin(), s_codes.begin() + 50);
  ASSERT_TRUE(s_index.Build(s_half).ok());
  for (std::size_t i = 50; i < 100; ++i) {
    ASSERT_TRUE(
        s_index.Insert(static_cast<TupleId>(i), s_codes[i]).ok());
  }
  auto pairs = r_index.JoinWith(s_index, 3).ValueOrDie();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<JoinPair> truth;
  for (std::size_t i = 0; i < r_codes.size(); ++i) {
    for (std::size_t j = 0; j < s_codes.size(); ++j) {
      if (r_codes[i].WithinDistance(s_codes[j], 3)) {
        truth.push_back({static_cast<TupleId>(i), static_cast<TupleId>(j)});
      }
    }
  }
  std::sort(truth.begin(), truth.end());
  EXPECT_EQ(pairs, truth);
}

TEST(DynamicHAIndex, DualTreeJoinRequiresTupleIds) {
  DynamicHAIndexOptions leafless;
  leafless.store_tuple_ids = false;
  DynamicHAIndex a, b(leafless);
  auto codes = RandomCodes(20, 32, /*seed=*/95);
  ASSERT_TRUE(a.Build(codes).ok());
  ASSERT_TRUE(b.Build(codes).ok());
  EXPECT_TRUE(a.JoinWith(b, 3).status().IsNotImplemented());
}

TEST(DynamicHAIndex, WindowSizeSweepStaysExact) {
  // Figure 8's tuning knobs must never affect correctness.
  auto codes = RandomCodes(400, 32, /*seed=*/81, /*clusters=*/8);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto q = RandomCodes(5, 32, /*seed=*/82, /*clusters=*/8);
  for (std::size_t window : {2u, 4u, 8u, 16u, 64u, 400u}) {
    for (std::size_t depth : {1u, 2u, 4u, 7u, 16u}) {
      DynamicHAIndexOptions opts;
      opts.window = window;
      opts.max_depth = depth;
      DynamicHAIndex index(opts);
      ASSERT_TRUE(index.Build(codes).ok());
      for (const auto& query : q) {
        auto got = Search(index, query, 3);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Sorted(*got), Sorted(*Search(truth, query, 3)))
            << "window=" << window << " depth=" << depth;
      }
    }
  }
}

}  // namespace
}  // namespace hamming
