// Differential tests for the batched Hamming kernels: every routine must
// agree bit-for-bit with a loop of scalar BinaryCode calls, under both
// the portable and (when available) AVX2 backends.
#include "kernels/hamming_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/threadpool.h"
#include "kernels/code_store.h"
#include "kernels/vertical_code_store.h"
#include "mapreduce/counters.h"
#include "test_util.h"

namespace hamming::kernels {
namespace {

using testutil::RandomCodes;

// Word counts straddling every boundary the kernels branch on.
const std::size_t kLengths[] = {1, 63, 64, 65, 225, 511, 512};

std::vector<Backend> BackendsUnderTest() {
  std::vector<Backend> out = {Backend::kPortable};
  if (Avx2Supported()) out.push_back(Backend::kAvx2);
  if (Avx512Supported()) out.push_back(Backend::kAvx512);
  return out;
}

// Pins a backend for one scope, restoring the previous one on exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : prev_(ActiveBackend()) { SetBackend(b); }
  ~ScopedBackend() { SetBackend(prev_); }

 private:
  Backend prev_;
};

using testutil::ScopedLayout;

TEST(CodeStore, RoundTripsCodes) {
  for (std::size_t bits : kLengths) {
    auto codes = RandomCodes(9, bits, /*seed=*/bits);
    auto store = CodeStore::FromCodes(codes);
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store->size(), codes.size());
    EXPECT_EQ(store->bits(), bits);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(store->Get(i), codes[i]) << "bits=" << bits << " i=" << i;
      EXPECT_TRUE(store->Matches(i, codes[i]));
      EXPECT_FALSE(store->Matches(i, codes[(i + 1) % codes.size()]) &&
                   codes[i] != codes[(i + 1) % codes.size()]);
    }
  }
}

TEST(CodeStore, RejectsMixedLengths) {
  std::vector<BinaryCode> codes = {BinaryCode(64), BinaryCode(65)};
  EXPECT_FALSE(CodeStore::FromCodes(codes).ok());
  CodeStore store;
  ASSERT_TRUE(store.Append(BinaryCode(64)).ok());
  EXPECT_FALSE(store.Append(BinaryCode(65)).ok());
}

TEST(CodeStore, PadLanesStayZeroAcrossAppendAndSwapRemove) {
  auto codes = RandomCodes(13, 225, /*seed=*/7);
  CodeStore store;
  for (const auto& c : codes) ASSERT_TRUE(store.Append(c).ok());
  auto check_pads = [&] {
    for (std::size_t w = 0; w < store.words(); ++w) {
      const uint64_t* lane = store.Lane(w);
      for (std::size_t i = store.size(); i < store.stride(); ++i) {
        ASSERT_EQ(lane[i], 0u) << "lane " << w << " pad slot " << i;
      }
    }
  };
  check_pads();
  // Swap-removing from the middle must re-zero the vacated last slot.
  while (store.size() > 1) {
    store.SwapRemove(store.size() / 2);
    check_pads();
  }
}

TEST(CodeStore, SwapRemoveKeepsRemainingCodes) {
  auto codes = RandomCodes(10, 64, /*seed=*/11);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  store.SwapRemove(3);  // last code moves into slot 3
  ASSERT_EQ(store.size(), 9u);
  EXPECT_EQ(store.Get(3), codes[9]);
  for (std::size_t i = 0; i < 9; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(store.Get(i), codes[i]);
  }
}

TEST(Kernels, BatchDistanceMatchesScalarAcrossLengthsAndSizes) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : kLengths) {
      // Store sizes 0..9 cross the 8-code block boundary of both paths.
      for (std::size_t n = 0; n <= 9; ++n) {
        auto codes = RandomCodes(n, bits, /*seed=*/1000 + bits + n);
        auto store = CodeStore::FromCodes(codes).ValueOrDie();
        auto query = RandomCodes(1, bits, /*seed=*/2000 + bits + n)[0];
        std::vector<uint32_t> dists;
        BatchDistance(query, store, &dists);
        ASSERT_EQ(dists.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(dists[i], codes[i].Distance(query))
              << BackendName(backend) << " bits=" << bits << " n=" << n
              << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, BatchWithinDistanceMatchesScalar) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : kLengths) {
      auto codes = RandomCodes(200, bits, /*seed=*/bits, /*clusters=*/8);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto query = RandomCodes(1, bits, /*seed=*/5 + bits)[0];
      for (std::size_t h : {0ul, 1ul, 3ul, bits / 4, bits}) {
        std::vector<uint32_t> slots;
        BatchWithinDistance(query, store, h, &slots);
        std::vector<uint32_t> expected;
        for (std::size_t i = 0; i < codes.size(); ++i) {
          if (codes[i].WithinDistance(query, h)) {
            expected.push_back(static_cast<uint32_t>(i));
          }
        }
        EXPECT_EQ(slots, expected)
            << BackendName(backend) << " bits=" << bits << " h=" << h;
      }
    }
  }
}

TEST(Kernels, BatchXorPopcountMatchesScalar) {
  Rng rng(99);
  // Sizes crossing the AVX2 4-word block boundary.
  for (std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 17ul, 1000ul}) {
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.NextWord();
    const uint64_t q = rng.NextWord();
    for (Backend backend : BackendsUnderTest()) {
      ScopedBackend pin(backend);
      std::vector<uint16_t> out(n, 0xabcd);
      BatchXorPopcount(q, values.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], std::popcount(values[i] ^ q))
            << BackendName(backend) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Kernels, BatchKnnMatchesSortedScalarDistances) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : {64ul, 225ul}) {
      auto codes = RandomCodes(500, bits, /*seed=*/3 * bits, /*clusters=*/4);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto query = RandomCodes(1, bits, /*seed=*/17 + bits)[0];
      for (std::size_t k : {0ul, 1ul, 10ul, 500ul, 600ul}) {
        auto got = BatchKnn(query, store, k);
        // Reference: all (distance, slot) pairs sorted, truncated to k.
        std::vector<std::pair<uint32_t, uint32_t>> ref;
        for (std::size_t i = 0; i < codes.size(); ++i) {
          ref.emplace_back(static_cast<uint32_t>(codes[i].Distance(query)),
                           static_cast<uint32_t>(i));
        }
        std::sort(ref.begin(), ref.end());
        ref.resize(std::min(k, ref.size()));
        ASSERT_EQ(got.size(), ref.size())
            << BackendName(backend) << " bits=" << bits << " k=" << k;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].first, ref[i].second) << "rank " << i;
          EXPECT_EQ(got[i].second, ref[i].first) << "rank " << i;
        }
      }
    }
  }
}

TEST(Kernels, MultiWithinDistanceMatchesScalarLoop) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : {64ul, 225ul}) {
      auto codes = RandomCodes(700, bits, /*seed=*/5 * bits, /*clusters=*/4);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto queries = RandomCodes(9, bits, /*seed=*/23 + bits, /*clusters=*/3);
      std::vector<const BinaryCode*> qptrs;
      std::vector<std::size_t> radii;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        qptrs.push_back(&queries[q]);
        radii.push_back(q * bits / 12);  // mix of selectivities incl. 0
      }
      std::vector<std::vector<SlotDistance>> hits;
      MultiWithinDistance(store, qptrs.data(), radii.data(), qptrs.size(),
                          &hits);
      ASSERT_EQ(hits.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        std::vector<SlotDistance> ref;
        for (std::size_t i = 0; i < codes.size(); ++i) {
          auto d = static_cast<uint32_t>(codes[i].Distance(queries[q]));
          if (d <= radii[q]) {
            ref.push_back({static_cast<uint32_t>(i), d});
          }
        }
        ASSERT_EQ(hits[q].size(), ref.size())
            << BackendName(backend) << " bits=" << bits << " q=" << q;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_TRUE(hits[q][i] == ref[i]) << "q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, MultiKnnMatchesBatchKnn) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : {64ul, 225ul}) {
      auto codes = RandomCodes(400, bits, /*seed=*/7 * bits, /*clusters=*/4);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto queries = RandomCodes(6, bits, /*seed=*/31 + bits);
      std::vector<const BinaryCode*> qptrs;
      // Mixed k per query, including 0 and beyond the dataset size.
      std::vector<std::size_t> ks = {0, 1, 10, 64, 400, 500};
      for (const auto& q : queries) qptrs.push_back(&q);
      std::vector<std::vector<std::pair<uint32_t, uint32_t>>> got;
      MultiKnn(store, qptrs.data(), ks.data(), qptrs.size(), &got);
      ASSERT_EQ(got.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto ref = BatchKnn(queries[q], store, ks[q]);
        ASSERT_EQ(got[q].size(), ref.size())
            << BackendName(backend) << " bits=" << bits << " q=" << q;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(got[q][i], ref[i]) << "q=" << q << " rank " << i;
        }
      }
    }
  }
}

TEST(Kernels, FuzzPortableAndActiveBackendsAgree) {
  // 10k-code pass per length: the two implementations (and the scalar
  // reference, spot-checked) must produce identical distance arrays.
  for (std::size_t bits : {64ul, 225ul, 512ul}) {
    auto codes = RandomCodes(10000, bits, /*seed=*/bits * 31, /*clusters=*/32);
    auto store = CodeStore::FromCodes(codes).ValueOrDie();
    auto query = RandomCodes(1, bits, /*seed=*/bits * 7)[0];
    std::vector<uint32_t> portable;
    {
      ScopedBackend pin(Backend::kPortable);
      BatchDistance(query, store, &portable);
    }
    for (Backend backend : BackendsUnderTest()) {
      ScopedBackend pin(backend);
      std::vector<uint32_t> got;
      BatchDistance(query, store, &got);
      ASSERT_EQ(got, portable) << BackendName(backend) << " bits=" << bits;
    }
    // Spot-check the scalar reference on a sample (full loop is O(n) too
    // but the point here is agreement, not another full differential).
    for (std::size_t i = 0; i < codes.size(); i += 997) {
      EXPECT_EQ(portable[i], codes[i].Distance(query)) << "i=" << i;
    }
  }
}

// Store sizes straddling the 512-code block boundary of the vertical
// layout, including multi-block with a partial tail.
const std::size_t kVerticalSizes[] = {0, 1, 63, 64, 65, 511, 512, 513, 1500};

TEST(VerticalStore, TransposeRoundTripAcrossLengthsAndSizes) {
  for (std::size_t bits : kLengths) {
    for (std::size_t n : kVerticalSizes) {
      auto codes = RandomCodes(n, bits, /*seed=*/7000 + bits + n);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      VerticalCodeStore v;
      store.TransposeInto(&v);
      ASSERT_EQ(v.size(), n) << "bits=" << bits;
      if (n > 0) {
        EXPECT_EQ(v.bits(), bits);
      }
      EXPECT_EQ(v.num_blocks(), (n + 511) / 512);
      // Differential round trip: transposing back must reproduce every
      // lane word, zero pads included.
      ASSERT_TRUE(v.IsTransposeOf(store)) << "bits=" << bits << " n=" << n;
      for (std::size_t i = 0; i < n; i += 101) {
        EXPECT_EQ(v.Get(i), codes[i]) << "bits=" << bits << " i=" << i;
      }
      if (n > 0) {
        // A flipped bit anywhere must break the equivalence.
        auto mutated = codes[n / 2];
        mutated.FlipBit(bits / 2);
        CodeStore other = store;
        ASSERT_TRUE(other.Append(mutated).ok());
        EXPECT_FALSE(v.IsTransposeOf(other));
      }
    }
  }
}

TEST(VerticalStore, IncrementalAppendMatchesBulkTranspose) {
  for (std::size_t bits : {64ul, 225ul, 511ul}) {
    auto codes = RandomCodes(700, bits, /*seed=*/31 * bits);
    CodeStore store;
    VerticalCodeStore incremental;
    for (const auto& c : codes) {
      ASSERT_TRUE(store.Append(c).ok());
      ASSERT_TRUE(incremental.Append(c).ok());
    }
    EXPECT_TRUE(incremental.IsTransposeOf(store)) << "bits=" << bits;
    VerticalCodeStore bulk;
    store.TransposeInto(&bulk);
    for (std::size_t i = 0; i < codes.size(); i += 97) {
      EXPECT_EQ(incremental.Get(i), bulk.Get(i)) << "i=" << i;
    }
  }
}

TEST(VerticalStore, RejectsMixedLengths) {
  VerticalCodeStore v;
  ASSERT_TRUE(v.Append(BinaryCode(64)).ok());
  EXPECT_FALSE(v.Append(BinaryCode(65)).ok());
}

TEST(VerticalStore, SwapRemoveTracksCodeStore) {
  auto codes = RandomCodes(600, 225, /*seed=*/53);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  store.TransposeInto(&v);
  std::size_t step = 0;
  while (store.size() > 0) {
    const std::size_t i = (store.size() * 2) / 3;
    store.SwapRemove(i);
    v.SwapRemove(i);
    // Full differential every few removals and around the 512-code
    // block boundary, where the tail block empties.
    if (++step % 37 == 0 || store.size() == 512 || store.size() == 511 ||
        store.size() <= 2) {
      ASSERT_TRUE(v.IsTransposeOf(store)) << "size=" << store.size();
    }
  }
  EXPECT_TRUE(v.empty());
}

TEST(Kernels, VerticalWithinDistanceMatchesScalarEverywhere) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : kLengths) {
      for (std::size_t n : {0ul, 1ul, 511ul, 512ul, 513ul, 1500ul}) {
        auto codes = RandomCodes(n, bits, /*seed=*/bits * 131 + n,
                                 /*clusters=*/6);
        auto store = CodeStore::FromCodes(codes).ValueOrDie();
        VerticalCodeStore v;
        store.TransposeInto(&v);
        auto query = RandomCodes(1, bits, /*seed=*/bits + 3 * n)[0];
        for (std::size_t h :
             {0ul, 1ul, 3ul, bits / 8, bits / 4, bits - 1, bits}) {
          std::vector<uint32_t> expected;
          for (std::size_t i = 0; i < n; ++i) {
            if (codes[i].WithinDistance(query, h)) {
              expected.push_back(static_cast<uint32_t>(i));
            }
          }
          std::vector<uint32_t> slots;
          VerticalScanStats stats;
          BatchWithinDistance(query, v, h, &slots, &stats);
          ASSERT_EQ(slots, expected) << BackendName(backend) << " bits="
                                     << bits << " n=" << n << " h=" << h;
          EXPECT_EQ(BatchCount(query, v, h), expected.size());
          EXPECT_EQ(stats.blocks_scanned, v.num_blocks());
          EXPECT_LE(stats.blocks_pruned, stats.blocks_scanned);
          EXPECT_LE(stats.planes_scanned, stats.blocks_scanned * bits);
        }
      }
    }
  }
}

TEST(Kernels, VerticalBackendsAgreeOnClusteredData) {
  // Clustered codes concentrate matches in a few blocks, exercising the
  // prune/no-prune split; every backend must agree with portable.
  const std::size_t bits = 256;
  auto codes = RandomCodes(3000, bits, /*seed=*/77, /*clusters=*/3);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  store.TransposeInto(&v);
  auto query = codes[123];
  query.FlipBit(5);
  for (std::size_t h : {2ul, 16ul, 64ul}) {
    std::vector<uint32_t> portable;
    {
      ScopedBackend pin(Backend::kPortable);
      BatchWithinDistance(query, v, h, &portable);
    }
    for (Backend backend : BackendsUnderTest()) {
      ScopedBackend pin(backend);
      std::vector<uint32_t> got;
      BatchWithinDistance(query, v, h, &got);
      EXPECT_EQ(got, portable) << BackendName(backend) << " h=" << h;
    }
  }
}

TEST(Kernels, ChooseLayoutHeuristic) {
  // Vertical only pays off for big stores with selective radii.
  EXPECT_EQ(ChooseLayout(128, 8, 1 << 20), KernelLayout::kVertical);
  EXPECT_EQ(ChooseLayout(128, 8, kVerticalMinCodes), KernelLayout::kVertical);
  EXPECT_EQ(ChooseLayout(128, 8, kVerticalMinCodes - 1),
            KernelLayout::kHorizontal);
  EXPECT_EQ(ChooseLayout(128, 17, 1 << 20), KernelLayout::kHorizontal);
  EXPECT_EQ(ChooseLayout(64, 8, 1 << 20), KernelLayout::kVertical);
  EXPECT_EQ(ChooseLayout(64, 9, 1 << 20), KernelLayout::kHorizontal);
}

TEST(Kernels, DualDispatchHonorsPolicyAndMirror) {
  const std::size_t bits = 128;
  const std::size_t n = kVerticalMinCodes + 77;
  auto codes = RandomCodes(n, bits, /*seed=*/9, /*clusters=*/5);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore mirror;
  store.TransposeInto(&mirror);
  auto query = RandomCodes(1, bits, /*seed=*/10)[0];
  const std::size_t h = 8;
  std::vector<uint32_t> expected;
  for (std::size_t i = 0; i < n; ++i) {
    if (codes[i].WithinDistance(query, h)) {
      expected.push_back(static_cast<uint32_t>(i));
    }
  }
  {
    ScopedLayout pin(LayoutPolicy::kAuto);
    std::vector<uint32_t> slots;
    VerticalScanStats stats;
    EXPECT_EQ(BatchWithinDistanceDual(query, store, &mirror, h, &slots,
                                      &stats),
              KernelLayout::kVertical);
    EXPECT_EQ(slots, expected);
    EXPECT_EQ(stats.blocks_scanned, mirror.num_blocks());
    // Unselective radius flips the heuristic back to horizontal.
    std::vector<uint32_t> all;
    EXPECT_EQ(BatchWithinDistanceDual(query, store, &mirror, bits, &all),
              KernelLayout::kHorizontal);
    EXPECT_EQ(all.size(), n);
  }
  {
    ScopedLayout pin(LayoutPolicy::kForceHorizontal);
    std::vector<uint32_t> slots;
    EXPECT_EQ(BatchWithinDistanceDual(query, store, &mirror, h, &slots),
              KernelLayout::kHorizontal);
    EXPECT_EQ(slots, expected);
  }
  {
    ScopedLayout pin(LayoutPolicy::kForceVertical);
    std::vector<uint32_t> slots;
    EXPECT_EQ(BatchWithinDistanceDual(query, store, &mirror, h, &slots),
              KernelLayout::kVertical);
    EXPECT_EQ(slots, expected);
    // No mirror, or a mirror that lags the store, must fall back.
    std::vector<uint32_t> fallback;
    EXPECT_EQ(BatchWithinDistanceDual(query, store, nullptr, h, &fallback),
              KernelLayout::kHorizontal);
    EXPECT_EQ(fallback, expected);
    CodeStore grown = store;
    ASSERT_TRUE(grown.Append(query).ok());
    std::vector<uint32_t> stale;
    EXPECT_EQ(BatchWithinDistanceDual(query, grown, &mirror, h, &stale),
              KernelLayout::kHorizontal);
    EXPECT_EQ(stale.size(), expected.size() + 1);
  }
}

TEST(Kernels, VerticalScanSharedAcrossThreads) {
  // Read-only concurrent scans over one shared mirror: exercised under
  // TSan by scripts/check.sh. Each thread gets its own output vector.
  const std::size_t bits = 128;
  auto codes = RandomCodes(2000, bits, /*seed=*/21, /*clusters=*/4);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  store.TransposeInto(&v);
  std::vector<uint32_t> expected;
  auto query = RandomCodes(1, bits, /*seed=*/22)[0];
  BatchWithinDistance(query, store, 24, &expected);
  ThreadPool pool(4);
  std::vector<std::vector<uint32_t>> got(16);
  ParallelFor(&pool, got.size(), [&](std::size_t i) {
    BatchWithinDistance(query, v, 24, &got[i]);
  });
  for (const auto& g : got) EXPECT_EQ(g, expected);
}

TEST(LocalCounters, MergeLocalMatchesPerRecordAdds) {
  // The batched counter path must produce totals byte-identical to the
  // contended per-record pattern it replaced.
  mr::Counters direct;
  mr::Counters batched;
  mr::LocalCounters local_a;
  mr::LocalCounters local_b;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t delta = rng.UniformInt(0, 100);
    direct.Add(mr::kMapInputRecords, delta);
    (i % 2 ? local_a : local_b).Add(mr::CounterId::kMapInputRecords, delta);
    if (i % 3 == 0) {
      direct.Add("CUSTOM", 1);
      (i % 2 ? local_a : local_b).Add("CUSTOM", 1);
    }
  }
  direct.Add(mr::kShuffleBytes, 0);  // touched with zero total
  local_a.Add(mr::CounterId::kShuffleBytes, 0);
  batched.MergeLocal(local_a);
  batched.MergeLocal(local_b);
  EXPECT_EQ(batched.Snapshot(), direct.Snapshot());
  EXPECT_EQ(batched.Get(mr::kMapInputRecords),
            direct.Get(mr::kMapInputRecords));
  EXPECT_EQ(batched.Get("CUSTOM"), direct.Get("CUSTOM"));
}

TEST(LocalCounters, InternsWellKnownNames) {
  mr::LocalCounters local;
  local.Add(mr::kReduceInputGroups, 3);  // by name
  local.Add(mr::CounterId::kReduceInputGroups, 4);  // by id
  EXPECT_EQ(local.Get(mr::CounterId::kReduceInputGroups), 7);
  mr::Counters counters;
  counters.MergeLocal(local);
  EXPECT_EQ(counters.Get(mr::kReduceInputGroups), 7);
  auto snap = counters.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.begin()->first, mr::kReduceInputGroups);
}

}  // namespace
}  // namespace hamming::kernels
