// Cross-implementation correctness: every Hamming index must return
// exactly the linear-scan result set for every query — the central
// invariant of the whole library, swept over index types, thresholds,
// code lengths and data distributions with TEST_P.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "index/concurrent_ha_index.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::Knn;
using testutil::MakeIndex;
using testutil::RandomCodes;
using testutil::Search;

// ---------------------------------------------------------------------------
// Exactness sweep: (index name, code bits, clustered?, h)
// ---------------------------------------------------------------------------

using ExactnessParam = std::tuple<std::string, std::size_t, bool, std::size_t>;

std::string ExactnessName(
    const ::testing::TestParamInfo<ExactnessParam>& info) {
  std::string n = std::get<0>(info.param);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_b" + std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_clustered" : "_uniform") + "_h" +
         std::to_string(std::get<3>(info.param));
}

std::string PlainName(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class IndexExactnessTest : public ::testing::TestWithParam<ExactnessParam> {};

TEST_P(IndexExactnessTest, MatchesLinearScan) {
  const auto& [name, bits, clustered, h] = GetParam();
  auto codes = RandomCodes(600, bits, /*seed=*/1234 + bits + h,
                           clustered ? 16 : 1);
  auto index = MakeIndex(name, /*h_max=*/8);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->Build(codes).ok());
  EXPECT_EQ(index->size(), codes.size());

  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());

  auto queries = RandomCodes(25, bits, /*seed=*/99 + h, clustered ? 16 : 1);
  // Also query with dataset members (guaranteed h=0 hits).
  queries.push_back(codes[0]);
  queries.push_back(codes[codes.size() / 2]);
  // The MH indexes are laid out for h_max = 3 (the paper's setting);
  // beyond that they are approximate with no false positives — the
  // sensitivity to h the paper criticizes in Section 2.
  bool exact = true;
  if ((name == "mh4" || name == "mh10") && h > 3) exact = false;

  for (const auto& q : queries) {
    auto expect = Search(truth, q, h);
    auto got = Search(*index, q, h);
    ASSERT_TRUE(got.ok()) << got.status();
    if (exact) {
      EXPECT_EQ(Sorted(*got), Sorted(*expect))
          << name << " bits=" << bits << " h=" << h;
    } else {
      auto sorted_got = Sorted(*got);
      auto sorted_expect = Sorted(*expect);
      EXPECT_TRUE(std::includes(sorted_expect.begin(), sorted_expect.end(),
                                sorted_got.begin(), sorted_got.end()))
          << name << " returned a false positive";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexExactnessTest,
    ::testing::Combine(
        ::testing::Values("linear", "mh4", "mh10", "hengine", "hmsearch",
                          "radix", "sha8", "sha4", "dha", "dha-w4",
                          "dha-w32"),
        ::testing::Values(32u, 64u),
        ::testing::Bool(),
        ::testing::Values(0u, 1u, 3u, 6u)),
    ExactnessName);

// ---------------------------------------------------------------------------
// Dynamic update sweep: insert/delete keep results consistent.
// ---------------------------------------------------------------------------

class IndexUpdateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IndexUpdateTest, DeleteThenReinsertPreservesResults) {
  // Table 4's "update" operation: delete one tuple, insert it back.
  const std::string name = GetParam();
  auto codes = RandomCodes(300, 32, /*seed=*/77, /*clusters=*/8);
  auto index = MakeIndex(name);
  ASSERT_TRUE(index->Build(codes).ok());

  auto q = codes[17];
  auto before = Search(*index, q, 3);
  ASSERT_TRUE(before.ok());

  for (TupleId victim : {TupleId{17}, TupleId{200}, TupleId{299}}) {
    ASSERT_TRUE(index->Delete(victim, codes[victim]).ok()) << name;
    auto during = Search(*index, q, 3);
    ASSERT_TRUE(during.ok());
    for (TupleId id : *during) EXPECT_NE(id, victim);
    ASSERT_TRUE(index->Insert(victim, codes[victim]).ok());
  }
  auto after = Search(*index, q, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sorted(*after), Sorted(*before)) << name;
}

TEST_P(IndexUpdateTest, DeleteMissingTupleFails) {
  const std::string name = GetParam();
  auto codes = RandomCodes(50, 32, /*seed=*/7);
  auto index = MakeIndex(name);
  ASSERT_TRUE(index->Build(codes).ok());
  BinaryCode absent(32);
  absent.SetBit(0, true);
  // Either the id or the code will not match anything indexed.
  Status st = index->Delete(9999, absent);
  EXPECT_FALSE(st.ok()) << name;
}

TEST_P(IndexUpdateTest, IncrementalInsertFindsNewTuples) {
  const std::string name = GetParam();
  auto codes = RandomCodes(200, 32, /*seed=*/31, /*clusters=*/4);
  auto index = MakeIndex(name);
  ASSERT_TRUE(index->Build(codes).ok());

  auto extra = RandomCodes(40, 32, /*seed=*/131, /*clusters=*/4);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(
        index->Insert(static_cast<TupleId>(1000 + i), extra[i]).ok());
  }
  for (std::size_t i = 0; i < extra.size(); ++i) {
    auto got = Search(*index, extra[i], 0);
    ASSERT_TRUE(got.ok());
    bool found = false;
    for (TupleId id : *got) {
      if (id == 1000 + i) found = true;
    }
    EXPECT_TRUE(found) << name << " missing inserted tuple " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexUpdateTest,
    ::testing::Values("linear", "mh4", "mh10", "hengine", "hmsearch",
                      "radix", "sha8", "dha"),
    PlainName);

// ---------------------------------------------------------------------------
// Shared behaviour
// ---------------------------------------------------------------------------

TEST(Indexes, PaperExampleSelect) {
  // Example 1: h-select(tq="101100010", S) with h=3 -> {t0, t3, t4, t6}.
  auto codes = testutil::PaperTableS();
  auto tq = BinaryCode::FromString("101100010").ValueOrDie();
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    auto got = Search(*index, tq, 3);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(Sorted(*got), (std::vector<TupleId>{0, 3, 4, 6})) << name;
  }
}

TEST(Indexes, EmptyIndexReturnsNothing) {
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build({}).ok()) << name;
    BinaryCode q(32);
    auto got = Search(*index, q, 3);
    // Empty index: either empty result or (for length-strict indexes) an
    // accepted empty probe.
    if (got.ok()) {
      EXPECT_TRUE(got->empty()) << name;
    }
  }
}

TEST(Indexes, DuplicateCodesAllReported) {
  std::vector<BinaryCode> codes;
  auto c = BinaryCode::FromString("10110011").ValueOrDie();
  for (int i = 0; i < 5; ++i) codes.push_back(c);
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    auto got = Search(*index, c, 0);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(Sorted(*got), (std::vector<TupleId>{0, 1, 2, 3, 4})) << name;
  }
}

TEST(Indexes, ThresholdCoveringWholeSpaceReturnsEverything) {
  auto codes = RandomCodes(100, 16, /*seed=*/3);
  for (const auto& name : testutil::AllIndexNames()) {
    // MH-k would need 17 segments over 16 bits to stay exact at h = 16.
    if (name == "mh4" || name == "mh10") continue;
    auto index = MakeIndex(name, /*h_max=*/16);
    ASSERT_TRUE(index->Build(codes).ok());
    BinaryCode q(16);
    auto got = Search(*index, q, 16);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(got->size(), codes.size()) << name;
  }
}

TEST(Indexes, MemoryAccountingIsPositiveAndOrdered) {
  auto codes = RandomCodes(2000, 32, /*seed=*/5, /*clusters=*/16);
  // The paper's Table 4 ordering: MH-10 uses more memory than MH-4; the
  // HA-Index variants use less than the multi-table baselines.
  auto mh4 = MakeIndex("mh4");
  auto mh10 = MakeIndex("mh10");
  auto dha = MakeIndex("dha");
  ASSERT_TRUE(mh4->Build(codes).ok());
  ASSERT_TRUE(mh10->Build(codes).ok());
  ASSERT_TRUE(dha->Build(codes).ok());
  EXPECT_GT(mh4->Memory().total(), 0u);
  EXPECT_GT(mh10->Memory().total(), mh4->Memory().total());
  EXPECT_LT(dha->Memory().total(), mh4->Memory().total());
}

TEST(Indexes, QueryLengthMismatchRejected) {
  auto codes = RandomCodes(20, 32, /*seed=*/9);
  for (const auto& name : {"mh4", "hengine", "hmsearch", "sha8", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    BinaryCode q(16);
    auto got = Search(*index, q, 3);
    EXPECT_FALSE(got.ok()) << name;
  }
}

TEST(Indexes, HEngineRejectsThresholdAboveHmax) {
  auto codes = RandomCodes(20, 32, /*seed=*/9);
  HEngineIndex index(/*h_max=*/3);
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_FALSE(Search(index, codes[0], 5).ok());
}

// ---------------------------------------------------------------------------
// KnnBatch on the base interface: the default geometric radius expansion
// (SearchBatch at h = 0, 1, 3, 7, ...; every match carries its exact
// distance) must agree with LinearScanIndex's batched-kernel override.
// ---------------------------------------------------------------------------

TEST(IndexKnn, DefaultRadiusExpansionMatchesBatchedScan) {
  const std::size_t kK = 9;
  auto codes = RandomCodes(400, 64, /*seed=*/77, /*clusters=*/8);
  LinearScanIndex scan;
  ASSERT_TRUE(scan.Build(codes).ok());
  auto dha = MakeIndex("dha");  // inherits the default KnnBatch
  ASSERT_TRUE(dha->Build(codes).ok());

  auto queries = RandomCodes(10, 64, /*seed=*/5, /*clusters=*/8);
  queries.push_back(codes[3]);  // guaranteed distance-0 hit
  for (const auto& q : queries) {
    auto exact = Knn(scan, q, kK);
    auto via_search = Knn(*dha, q, kK);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(via_search.ok()) << via_search.status();
    ASSERT_EQ(exact->size(), kK);
    ASSERT_EQ(via_search->size(), kK);
    for (std::size_t i = 0; i < kK; ++i) {
      // Same distance profile; ties may order differently, so check the
      // reported distance is each id's true distance.
      EXPECT_EQ((*exact)[i].second, (*via_search)[i].second) << "rank " << i;
      const auto& [id, dist] = (*via_search)[i];
      EXPECT_EQ(codes[id].Distance(q), dist);
    }
  }
}

TEST(IndexKnn, HandlesSmallAndEmptyCases) {
  auto codes = RandomCodes(5, 32, /*seed=*/11);
  for (const char* name : {"linear", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    // k larger than the index: everything comes back, ascending distance.
    auto all = Knn(*index, codes[0], 50);
    ASSERT_TRUE(all.ok()) << name;
    EXPECT_EQ(all->size(), codes.size()) << name;
    for (std::size_t i = 1; i < all->size(); ++i) {
      EXPECT_LE((*all)[i - 1].second, (*all)[i].second) << name;
    }
    // k = 0 and empty index return empty results.
    auto none = Knn(*index, codes[0], 0);
    ASSERT_TRUE(none.ok()) << name;
    EXPECT_TRUE(none->empty()) << name;
    auto empty = MakeIndex(name);
    ASSERT_TRUE(empty->Build({}).ok());
    auto from_empty = Knn(*empty, codes[0], 3);
    ASSERT_TRUE(from_empty.ok()) << name;
    EXPECT_TRUE(from_empty->empty()) << name;
  }
}

TEST(IndexKnn, KAtAndAboveDatasetSizeReturnsAllTuplesOnce) {
  auto codes = RandomCodes(23, 32, /*seed=*/21);
  for (const char* name : {"linear", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    for (std::size_t k : {codes.size(), codes.size() + 1, codes.size() * 4}) {
      auto all = Knn(*index, codes[2], k);
      ASSERT_TRUE(all.ok()) << name << " k=" << k;
      ASSERT_EQ(all->size(), codes.size()) << name << " k=" << k;
      std::vector<bool> found(codes.size(), false);
      for (const auto& [id, dist] : *all) {
        ASSERT_LT(id, codes.size()) << name;
        EXPECT_FALSE(found[id]) << name << " duplicate id " << id;
        found[id] = true;
        EXPECT_EQ(codes[id].Distance(codes[2]), dist) << name;
      }
    }
  }
}

TEST(IndexKnn, DistanceTiesAtTheCutStayExact) {
  // Query 0...0; one code at distance 0, two at distance 1, four at
  // distance 2. k = 2 cuts inside the distance-1 tie group and k = 4
  // inside the distance-2 group.
  std::vector<BinaryCode> codes;
  BinaryCode zero(16);
  codes.push_back(zero);
  for (std::size_t pos : {0u, 5u}) {
    BinaryCode c(16);
    c.SetBit(pos, true);
    codes.push_back(c);
  }
  for (std::size_t pos : {1u, 4u, 9u, 13u}) {
    BinaryCode c(16);
    c.SetBit(pos, true);
    c.SetBit(15, true);
    codes.push_back(c);
  }
  for (const char* name : {"linear", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    for (auto [k, want_last] : {std::pair<std::size_t, uint32_t>{2, 1},
                                {3, 1},
                                {4, 2},
                                {6, 2}}) {
      auto got = Knn(*index, zero, k);
      ASSERT_TRUE(got.ok()) << name << " k=" << k;
      ASSERT_EQ(got->size(), k) << name << " k=" << k;
      for (std::size_t i = 1; i < got->size(); ++i) {
        EXPECT_LE((*got)[i - 1].second, (*got)[i].second) << name;
      }
      // Distances are exact even for the ties at the cut, and the k-th
      // distance matches the true distance profile (1,1,2,2,2,2 after
      // the distance-0 hit).
      EXPECT_EQ(got->back().second, want_last) << name << " k=" << k;
      for (const auto& [id, dist] : *got) {
        EXPECT_EQ(codes[id].Distance(zero), dist) << name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The query surface (SearchBatch / KnnBatch): every index must answer a
// batch exactly as it answers the same queries one at a time (a batch of
// one), and the per-match distances it reports must be the true ones.
// ---------------------------------------------------------------------------

TEST(BatchApi, SearchBatchMatchesScalarForEveryIndex) {
  auto codes = RandomCodes(500, 64, /*seed=*/314, /*clusters=*/8);
  auto queries = RandomCodes(12, 64, /*seed=*/159, /*clusters=*/8);
  queries.push_back(codes[7]);
  for (const char* name : {"linear", "mh4", "hengine", "hmsearch", "radix",
                           "sha8", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    for (std::size_t h : {0ul, 2ul, 3ul}) {
      std::vector<QueryRequest> requests;
      for (const auto& q : queries) {
        requests.push_back(QueryRequest::Range(q, h));
      }
      std::vector<QueryResponse> responses(requests.size());
      ASSERT_TRUE(index
                      ->SearchBatch({requests.data(), requests.size()},
                                    {responses.data(), responses.size()})
                      .ok())
          << name;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(responses[i].status.ok()) << name << " query " << i;
        auto scalar = Search(*index, queries[i], h);
        ASSERT_TRUE(scalar.ok()) << name;
        EXPECT_EQ(responses[i].ids, *scalar)
            << name << " h=" << h << " query " << i;
        EXPECT_TRUE(responses[i].has_distances) << name;
        ASSERT_EQ(responses[i].distances.size(), responses[i].ids.size())
            << name;
        for (std::size_t j = 0; j < responses[i].ids.size(); ++j) {
          EXPECT_EQ(responses[i].distances[j],
                    codes[responses[i].ids[j]].Distance(queries[i]))
              << name << " query " << i << " match " << j;
        }
      }
    }
  }
}

TEST(BatchApi, KnnBatchMatchesScalarKnn) {
  auto codes = RandomCodes(300, 64, /*seed=*/271, /*clusters=*/8);
  auto queries = RandomCodes(8, 64, /*seed=*/828, /*clusters=*/8);
  for (const char* name : {"linear", "dha", "sha8"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    std::vector<QueryRequest> requests;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests.push_back(QueryRequest::Knn(queries[i], 1 + 3 * i));
    }
    std::vector<QueryResponse> responses(requests.size());
    ASSERT_TRUE(index
                    ->KnnBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                    .ok())
        << name;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok()) << name;
      auto scalar = Knn(*index, queries[i], requests[i].k);
      ASSERT_TRUE(scalar.ok()) << name;
      EXPECT_EQ(responses[i].neighbors, *scalar) << name << " query " << i;
    }
  }
}

TEST(BatchApi, MismatchedSpansRejected) {
  auto codes = RandomCodes(32, 32, /*seed=*/4);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  std::vector<QueryRequest> requests(2, QueryRequest::Range(codes[0], 1));
  std::vector<QueryResponse> responses(1);
  EXPECT_TRUE(index
                  .SearchBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                  .IsInvalidArgument());
  EXPECT_TRUE(index
                  .KnnBatch({requests.data(), requests.size()},
                            {responses.data(), responses.size()})
                  .IsInvalidArgument());
}

TEST(BatchApi, PerRequestFailureDoesNotPoisonTheBatch) {
  auto codes = RandomCodes(64, 32, /*seed=*/6);
  auto dha = MakeIndex("dha");
  ASSERT_TRUE(dha->Build(codes).ok());
  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::Range(codes[0], 2));
  requests.push_back(
      QueryRequest::Range(RandomCodes(1, 16, /*seed=*/8)[0], 2));  // bad len
  requests.push_back(QueryRequest::Range(codes[1], 2));
  std::vector<QueryResponse> responses(requests.size());
  ASSERT_TRUE(dha->SearchBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                  .ok());
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_TRUE(responses[1].status.IsInvalidArgument());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[0].ids, *Search(*dha, codes[0], 2));
  EXPECT_EQ(responses[2].ids, *Search(*dha, codes[1], 2));
}

// ---------------------------------------------------------------------------
// Exact distances from every family: each OK range response carries one
// distance per id, equal to BinaryCode::Distance, on every plan an index
// can take — including the vertical (bit-plane) scans, whose survivors
// get their distance from a popcount, and the DHA insert buffer and CHA
// delta scans.
// ---------------------------------------------------------------------------

// Runs every query at radius h and checks each response against the
// (id -> code) corpus: distances parallel to ids and exact, and — where
// the index is exact at h — the same ids as a brute-force scan.
void ExpectExactDistances(const HammingIndex& index,
                          const std::unordered_map<TupleId, BinaryCode>& corpus,
                          const std::vector<BinaryCode>& queries,
                          std::size_t h, const std::string& label,
                          obs::QueryStats* total = nullptr) {
  std::vector<QueryRequest> requests;
  for (const auto& q : queries) requests.push_back(QueryRequest::Range(q, h));
  std::vector<QueryResponse> responses(requests.size());
  ASSERT_TRUE(index
                  .SearchBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                  .ok())
      << label;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResponse& resp = responses[i];
    ASSERT_TRUE(resp.status.ok()) << label << ": " << resp.status;
    EXPECT_TRUE(resp.has_distances) << label;
    ASSERT_EQ(resp.distances.size(), resp.ids.size()) << label;
    for (std::size_t j = 0; j < resp.ids.size(); ++j) {
      auto it = corpus.find(resp.ids[j]);
      ASSERT_NE(it, corpus.end()) << label << " unknown id " << resp.ids[j];
      EXPECT_EQ(resp.distances[j], it->second.Distance(queries[i]))
          << label << " h=" << h << " id " << resp.ids[j];
    }
    if (h <= index.MaxRadius()) {
      std::vector<TupleId> expect;
      for (const auto& [id, code] : corpus) {
        if (code.Distance(queries[i]) <= h) expect.push_back(id);
      }
      EXPECT_EQ(Sorted(resp.ids), Sorted(expect)) << label << " h=" << h;
    }
    if (total != nullptr) *total += resp.stats;
  }
}

std::unordered_map<TupleId, BinaryCode> CorpusOf(
    const std::vector<BinaryCode>& codes) {
  std::unordered_map<TupleId, BinaryCode> corpus;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    corpus.emplace(static_cast<TupleId>(i), codes[i]);
  }
  return corpus;
}

TEST(ExactDistances, EveryFamilyUnderEveryLayoutPolicy) {
  auto codes = RandomCodes(600, 64, /*seed=*/901, /*clusters=*/12);
  auto queries = RandomCodes(10, 64, /*seed=*/902, /*clusters=*/12);
  queries.push_back(codes[5]);
  const auto corpus = CorpusOf(codes);
  for (auto policy : {kernels::LayoutPolicy::kAuto,
                      kernels::LayoutPolicy::kForceHorizontal,
                      kernels::LayoutPolicy::kForceVertical}) {
    testutil::ScopedLayout layout(policy);
    const std::string pname = kernels::LayoutPolicyName(policy);
    for (const auto& name : testutil::AllIndexNames()) {
      auto index = MakeIndex(name, /*h_max=*/8);
      ASSERT_TRUE(index->Build(codes).ok()) << name;
      for (std::size_t h : {0ul, 3ul, 6ul}) {
        ExpectExactDistances(*index, corpus, queries, h, name + "/" + pname);
      }
    }
  }
}

TEST(ExactDistances, VerticalPathsOfLinearScanAndStaticHA) {
  // n >= kVerticalMinCodes and h <= bits/8: the auto chooser takes the
  // bit-plane scan.
  testutil::ScopedLayout layout(kernels::LayoutPolicy::kAuto);
  auto codes = RandomCodes(5000, 64, /*seed=*/903, /*clusters=*/20);
  auto queries = RandomCodes(6, 64, /*seed=*/904, /*clusters=*/20);
  queries.push_back(codes[17]);
  const auto corpus = CorpusOf(codes);
  for (const char* name : {"linear", "sha8", "sha4"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    for (std::size_t h : {2ul, 8ul}) {
      obs::QueryStats stats;
      ExpectExactDistances(*index, corpus, queries, h, name, &stats);
      EXPECT_GT(stats.planes_scanned, 0u) << name << " took no vertical scan";
    }
  }
}

TEST(ExactDistances, VerticalPathOfALargeMultiHashBucket) {
  // Codes one flip away from two centers share most 16-bit blocks, so the
  // centers' buckets grow past kVerticalMinCodes and keep a bit-plane
  // mirror.
  testutil::ScopedLayout layout(kernels::LayoutPolicy::kAuto);
  auto codes = RandomCodes(12000, 64, /*seed=*/905, /*clusters=*/2,
                           /*flip_bits=*/1);
  const auto corpus = CorpusOf(codes);
  std::vector<BinaryCode> queries = {codes[0], codes[1], codes[2]};
  MultiHashTableIndex mh(4, /*h_max=*/3);
  ASSERT_TRUE(mh.Build(codes).ok());
  obs::QueryStats stats;
  ExpectExactDistances(mh, corpus, queries, 3, "mh4", &stats);
  EXPECT_GT(stats.planes_scanned, 0u) << "no bucket took the vertical scan";
}

TEST(ExactDistances, DynamicHAInsertBufferAndConcurrentDelta) {
  auto codes = RandomCodes(700, 64, /*seed=*/906, /*clusters=*/10);
  const std::size_t built = 500;
  std::vector<BinaryCode> base(codes.begin(), codes.begin() + built);
  auto queries = RandomCodes(8, 64, /*seed=*/907, /*clusters=*/10);
  queries.push_back(codes[built + 3]);  // a buffered / delta tuple

  DynamicHAIndex dha;  // flush threshold 1024: the inserts stay buffered
  ASSERT_TRUE(dha.Build(base).ok());
  ConcurrentHAIndex cha;
  ASSERT_TRUE(cha.Build(base).ok());
  for (std::size_t i = built; i < codes.size(); ++i) {
    ASSERT_TRUE(dha.Insert(static_cast<TupleId>(i), codes[i]).ok());
    ASSERT_TRUE(cha.Insert(static_cast<TupleId>(i), codes[i]).ok());
  }
  auto corpus = CorpusOf(codes);
  for (std::size_t h : {0ul, 4ul, 9ul}) {
    ExpectExactDistances(dha, corpus, queries, h, "dha+buffer");
  }
  // Tombstones on the CHA base plus deletes from its delta.
  for (TupleId id : {TupleId{3}, TupleId{40}, TupleId{built + 1}}) {
    ASSERT_TRUE(cha.Delete(id, codes[id]).ok());
    corpus.erase(id);
  }
  EXPECT_GT(cha.Pin()->delta_inserts(), 0u);
  EXPECT_GT(cha.Pin()->delta_tombstones(), 0u);
  for (std::size_t h : {0ul, 4ul, 9ul}) {
    obs::QueryStats stats;
    ExpectExactDistances(cha, corpus, queries, h, "cha", &stats);
  }
}

// ---------------------------------------------------------------------------
// KnnBatch against LinearScan's distance profile. Families exact at every
// radius must match it for any k; the signature families (MH, HEngine,
// HmSearch) must match it for a k whose k-th distance is within their
// h_max, and otherwise return only neighbours within h_max — the radius
// expansion is capped at MaxRadius() instead of failing past it.
// ---------------------------------------------------------------------------

TEST(IndexKnn, EveryFamilyMatchesTheLinearScanProfile) {
  auto codes = RandomCodes(800, 64, /*seed=*/908, /*clusters=*/10);
  auto queries = RandomCodes(6, 64, /*seed=*/909, /*clusters=*/10);
  queries.push_back(codes[11]);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());

  std::vector<std::pair<std::string, std::unique_ptr<HammingIndex>>> indexes;
  for (const auto& name : testutil::AllIndexNames()) {
    indexes.emplace_back(name, MakeIndex(name, /*h_max=*/8));
  }
  indexes.emplace_back("cha", std::make_unique<ConcurrentHAIndex>());
  for (auto& [name, index] : indexes) {
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    const std::size_t bound = index->MaxRadius();
    for (const auto& q : queries) {
      auto profile = Knn(truth, q, codes.size());
      ASSERT_TRUE(profile.ok());
      // How many tuples lie within the family's bound.
      std::size_t within = 0;
      while (within < profile->size() && (*profile)[within].second <= bound) {
        ++within;
      }
      std::vector<std::size_t> ks = {1, 10, 60};
      if (bound < q.size()) {
        ks = {std::max<std::size_t>(1, within / 2), within, within + 25};
      }
      for (std::size_t k : ks) {
        auto got = Knn(*index, q, k);
        ASSERT_TRUE(got.ok()) << name << " k=" << k << ": " << got.status();
        const std::size_t want = std::min(k, bound < q.size() ? within
                                                              : codes.size());
        ASSERT_EQ(got->size(), want) << name << " k=" << k;
        for (std::size_t r = 0; r < want; ++r) {
          EXPECT_EQ((*got)[r].second, (*profile)[r].second)
              << name << " k=" << k << " rank " << r;
          EXPECT_EQ(codes[(*got)[r].first].Distance(q), (*got)[r].second)
              << name;
          EXPECT_LE((*got)[r].second, bound) << name;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The geometric (distance-guided) kNN radius expansion: O(log L) rounds,
// with the re-scan waste of each round recorded.
// ---------------------------------------------------------------------------

TEST(IndexKnn, GeometricExpansionBoundsRoundsAndRecordsWaste) {
  auto codes = RandomCodes(500, 64, /*seed=*/41, /*clusters=*/8);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto dha = MakeIndex("dha");  // batch path reports distances
  ASSERT_TRUE(dha->Build(codes).ok());
  auto queries = RandomCodes(8, 64, /*seed=*/43, /*clusters=*/8);
  for (const auto& q : queries) {
    obs::QueryStats stats;
    auto got = Knn(*dha, q, 10, &stats);
    ASSERT_TRUE(got.ok());
    auto exact = Knn(truth, q, 10);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(got->size(), exact->size());
    for (std::size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].second, (*exact)[i].second) << "rank " << i;
    }
    // Geometric doubling over 64-bit codes: radii 0,1,3,7,15,31,63 — at
    // most 7 rounds, where an h += 1 walk would take up to (k-th
    // distance + 1) rounds.
    EXPECT_LE(stats.radius_expansions, 7u);
  }
}

TEST(IndexKnn, RescannedResultsCountsRadiusExpansionWaste) {
  // Two codes one bit apart. Knn(zero, 2) needs two rounds (h=0 finds
  // only the exact match), and the second round re-returns it — exactly
  // one re-scanned result.
  BinaryCode zero(32);
  BinaryCode near = zero;
  near.FlipBit(3);
  auto dha = MakeIndex("dha");
  ASSERT_TRUE(dha->Build({zero, near}).ok());
  obs::QueryStats stats;
  auto got = Knn(*dha, zero, 2, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ(stats.radius_expansions, 2u);
  EXPECT_EQ(stats.rescanned_results, 1u);
}

}  // namespace
}  // namespace hamming
