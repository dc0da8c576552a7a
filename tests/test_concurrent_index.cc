// ConcurrentHAIndex tests: the epoch/snapshot layer must (a) answer
// exactly like the single-threaded DynamicHAIndex it wraps, (b) freeze
// pinned snapshots byte-for-byte while the live index churns, (c) answer
// every request of one batch against exactly ONE published epoch, and
// (d) survive an N-reader/1-mutator stress race-free — the
// ConcurrentIndex*/ChurnStress* filters run under TSan in
// scripts/check.sh. The DynamicHAAudit suite exercises the
// SwapRemove-era cross-structure invariants via CheckConsistency.
#include "index/concurrent_ha_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>

#include "common/rng.h"
#include "common/sync.h"
#include "index/dynamic_ha_index.h"
#include "observability/metrics.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::Knn;
using testutil::RandomCodes;
using testutil::Search;

// Brute force over an exported corpus — the ground truth every snapshot
// result is compared against.
std::vector<TupleId> BruteForce(
    const std::vector<std::pair<TupleId, BinaryCode>>& tuples,
    const BinaryCode& query, std::size_t h) {
  std::vector<TupleId> out;
  for (const auto& [id, code] : tuples) {
    if (query.WithinDistance(code, h)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ConcurrentIndexBasic, BuildAndSearchMatchDynamicHA) {
  auto codes = RandomCodes(400, 64, /*seed=*/3, /*clusters=*/8);
  auto queries = RandomCodes(32, 64, /*seed=*/4, /*clusters=*/8);

  ConcurrentHAIndex cha;
  DynamicHAIndex dha;
  ASSERT_TRUE(cha.Build(codes).ok());
  ASSERT_TRUE(dha.Build(codes).ok());
  EXPECT_EQ(cha.size(), dha.size());
  EXPECT_EQ(cha.name(), "CHA-Index");

  for (const auto& q : queries) {
    auto got = Search(cha, q, 4);
    auto ref = Search(dha, q, 4);
    ASSERT_TRUE(got.ok() && ref.ok());
    EXPECT_EQ(Sorted(*got), Sorted(*ref));
  }

  // The batch surface reports exact distances, same as
  // the wrapped DynamicHA plan.
  std::vector<QueryRequest> reqs;
  for (const auto& q : queries) reqs.push_back(QueryRequest::Range(q, 4));
  std::vector<QueryResponse> resps(reqs.size());
  ASSERT_TRUE(cha.SearchBatch(reqs, resps).ok());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(resps[i].status.ok());
    EXPECT_TRUE(resps[i].has_distances);
    auto ref = Search(dha, queries[i], 4);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(Sorted(resps[i].ids), Sorted(*ref)) << "query " << i;
    for (std::size_t j = 0; j < resps[i].ids.size(); ++j) {
      EXPECT_EQ(resps[i].distances[j],
                queries[i].Distance(codes[resps[i].ids[j]]));
    }
  }
}

TEST(ConcurrentIndexBasic, KnnMatchesDynamicHA) {
  auto codes = RandomCodes(300, 64, /*seed=*/5, /*clusters=*/6);
  ConcurrentHAIndex cha;
  DynamicHAIndex dha;
  ASSERT_TRUE(cha.Build(codes).ok());
  ASSERT_TRUE(dha.Build(codes).ok());
  auto queries = RandomCodes(16, 64, /*seed=*/6, /*clusters=*/6);
  for (const auto& q : queries) {
    auto got = Knn(cha, q, 9);
    auto ref = Knn(dha, q, 9);
    ASSERT_TRUE(got.ok() && ref.ok());
    ASSERT_EQ(got->size(), ref->size());
    for (std::size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].second, (*ref)[i].second) << "rank " << i;
    }
  }
}

TEST(ConcurrentIndexBasic, SnapshotIsImmutable) {
  auto codes = RandomCodes(64, 32, /*seed=*/7);
  ConcurrentHAIndex cha;
  ASSERT_TRUE(cha.Build(codes).ok());
  ConcurrentHAIndex::SnapshotPtr snap = cha.Pin();
  ASSERT_NE(snap, nullptr);
  EXPECT_FALSE(snap->SupportsDynamicUpdates());
  // The const entry points are the whole surface; mutators refuse.
  auto* mutable_snap = const_cast<ConcurrentHAIndex::Snapshot*>(snap.get());
  EXPECT_TRUE(mutable_snap->Build(codes).IsNotImplemented());
  EXPECT_TRUE(mutable_snap->Insert(999, codes[0]).IsNotImplemented());
  EXPECT_TRUE(mutable_snap->Delete(0, codes[0]).IsNotImplemented());
}

TEST(ConcurrentIndexBasic, InsertDeleteDifferentialVsDynamicHA) {
  // Sequential differential churn: after every mutation (each published,
  // publish_threshold = 1) the wrapper must answer exactly like a
  // DynamicHAIndex mirror of the same live corpus.
  auto pool = RandomCodes(256, 48, /*seed=*/11, /*clusters=*/8);
  std::vector<BinaryCode> initial(pool.begin(), pool.begin() + 128);

  ConcurrentHAIndex cha;
  DynamicHAIndex mirror;
  ASSERT_TRUE(cha.Build(initial).ok());
  ASSERT_TRUE(mirror.Build(initial).ok());

  std::map<TupleId, BinaryCode> live;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    live.emplace(static_cast<TupleId>(i), initial[i]);
  }

  Rng rng(13);
  TupleId next_id = 1000;
  const auto queries = RandomCodes(8, 48, /*seed=*/17, /*clusters=*/8);
  for (std::size_t step = 0; step < 300; ++step) {
    const bool do_insert = live.empty() || rng.Bernoulli(0.55);
    if (do_insert) {
      const TupleId id = next_id++;
      const BinaryCode& code = pool[id % pool.size()];
      ASSERT_TRUE(cha.Insert(id, code).ok()) << "step " << step;
      ASSERT_TRUE(mirror.Insert(id, code).ok());
      live.emplace(id, code);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(live.size()) - 1)));
      ASSERT_TRUE(cha.Delete(it->first, it->second).ok()) << "step " << step;
      ASSERT_TRUE(mirror.Delete(it->first, it->second).ok());
      live.erase(it);
    }
    ASSERT_EQ(cha.size(), live.size()) << "step " << step;
    if (step % 25 == 0) {
      for (const auto& q : queries) {
        auto got = Search(cha, q, 4);
        auto ref = Search(mirror, q, 4);
        ASSERT_TRUE(got.ok() && ref.ok());
        ASSERT_EQ(Sorted(*got), Sorted(*ref)) << "step " << step;
      }
    }
  }
  // Epochs advanced once per mutation (plus ctor + build).
  EXPECT_GE(cha.epoch(), 300u);
}

TEST(ConcurrentIndexBasic, ReinsertAfterDeleteUsesNewCode) {
  // Delete a base-resident tuple, then re-insert the same id with a
  // DIFFERENT code: the tombstone must keep hiding the base copy while
  // the delta carries the new one.
  auto codes = RandomCodes(32, 32, /*seed=*/19);
  ConcurrentHAIndex cha;
  ASSERT_TRUE(cha.Build(codes).ok());
  BinaryCode replacement(32);
  for (std::size_t b = 0; b < 32; ++b) replacement.SetBit(b, b % 3 == 0);
  ASSERT_TRUE(cha.Delete(7, codes[7]).ok());
  ASSERT_TRUE(cha.Insert(7, replacement).ok());

  auto at_new = Search(cha, replacement, 0);
  ASSERT_TRUE(at_new.ok());
  EXPECT_TRUE(std::find(at_new->begin(), at_new->end(), 7) != at_new->end());
  auto at_old = Search(cha, codes[7], 0);
  ASSERT_TRUE(at_old.ok());
  EXPECT_TRUE(std::find(at_old->begin(), at_old->end(), 7) == at_old->end());
}

TEST(ConcurrentIndexBasic, DuplicateInsertAndMismatchedDeleteRejected) {
  auto codes = RandomCodes(16, 32, /*seed=*/23);
  ConcurrentHAIndex cha;
  ASSERT_TRUE(cha.Build(codes).ok());
  EXPECT_TRUE(cha.Insert(3, codes[3]).IsInvalidArgument());
  EXPECT_TRUE(cha.Delete(9999, codes[0]).IsKeyError());
  EXPECT_TRUE(cha.Delete(0, codes[1]).IsKeyError());  // wrong code
  EXPECT_EQ(cha.size(), codes.size());  // failed mutations change nothing
}

TEST(ConcurrentIndexBasic, RebuildCompactsDelta) {
  auto codes = RandomCodes(128, 48, /*seed=*/29, /*clusters=*/8);
  ConcurrentHAIndexOptions opts;
  opts.rebuild_threshold = 16;
  ConcurrentHAIndex cha(opts);
  DynamicHAIndex mirror;
  ASSERT_TRUE(cha.Build(codes).ok());
  ASSERT_TRUE(mirror.Build(codes).ok());

  // 64 delete+insert cycles over base-resident ids: tombstones + delta
  // pairs accumulate and must cross the rebuild threshold repeatedly.
  for (TupleId id = 0; id < 64; ++id) {
    ASSERT_TRUE(cha.Delete(id, codes[id]).ok());
    ASSERT_TRUE(cha.Insert(id, codes[id]).ok());
    ASSERT_TRUE(mirror.Delete(id, codes[id]).ok());
    ASSERT_TRUE(mirror.Insert(id, codes[id]).ok());
  }
  EXPECT_GT(cha.rebuilds(), 0u);
  ConcurrentHAIndex::SnapshotPtr snap = cha.Pin();
  EXPECT_LT(snap->delta_inserts() + snap->delta_tombstones(), 16u);

  auto queries = RandomCodes(8, 48, /*seed=*/31, /*clusters=*/8);
  for (const auto& q : queries) {
    auto got = Search(cha, q, 4);
    auto ref = Search(mirror, q, 4);
    ASSERT_TRUE(got.ok() && ref.ok());
    EXPECT_EQ(Sorted(*got), Sorted(*ref));
  }
}

TEST(ConcurrentIndexBasic, EpochMetricsRecorded) {
  obs::MetricsRegistry metrics;
  ConcurrentHAIndexOptions opts;
  opts.metrics = &metrics;
  ConcurrentHAIndex cha(opts);
  auto codes = RandomCodes(64, 32, /*seed=*/37);
  ASSERT_TRUE(cha.Build(codes).ok());
  for (TupleId id = 0; id < 8; ++id) {
    ASSERT_TRUE(cha.Delete(id, codes[id]).ok());
  }
  auto probe = Search(cha, codes[20], 2);
  ASSERT_TRUE(probe.ok());

  auto snap = metrics.Snapshot();
  // ctor (empty epoch 0) + Build + 8 deletes.
  EXPECT_EQ(snap.counters.at("index.epoch_published"), 10);
  EXPECT_GT(snap.counters.at("index.epoch_pins"), 0);
  EXPECT_GE(snap.counters.at("index.epoch_reclaimed"), 1);
  EXPECT_EQ(snap.gauges.at("index.epoch_current"), 9);
  EXPECT_TRUE(snap.gauges.count("index.epoch_retired"));
}

TEST(ConcurrentIndexBasic, RetiredSnapshotsReclaimedAfterReadersUnpin) {
  auto codes = RandomCodes(64, 32, /*seed=*/41);
  ConcurrentHAIndex cha;
  ASSERT_TRUE(cha.Build(codes).ok());
  {
    // A long-lived pin keeps its epoch alive across publishes...
    ConcurrentHAIndex::SnapshotPtr pinned = cha.Pin();
    for (TupleId id = 0; id < 4; ++id) {
      ASSERT_TRUE(cha.Delete(id, codes[id]).ok());
    }
    EXPECT_GE(cha.retired_snapshots(), 1u);
    EXPECT_EQ(pinned->size(), codes.size());  // still the frozen corpus
  }
  // ...and once dropped, the next publish sweeps everything retired.
  ASSERT_TRUE(cha.Publish().ok());
  EXPECT_EQ(cha.retired_snapshots(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent suites (run under TSan via scripts/check.sh)
// ---------------------------------------------------------------------------

TEST(ConcurrentIndexSnapshot, PinnedSnapshotFrozenDuringChurn) {
  auto codes = RandomCodes(300, 48, /*seed=*/43, /*clusters=*/8);
  auto queries = RandomCodes(12, 48, /*seed=*/47, /*clusters=*/8);
  ConcurrentHAIndex cha;
  ASSERT_TRUE(cha.Build(codes).ok());

  ConcurrentHAIndex::SnapshotPtr pinned = cha.Pin();
  // Reference answers = brute force over the pinned epoch's frozen
  // corpus, captured before any churn starts.
  std::vector<std::vector<TupleId>> want;
  const auto frozen = pinned->ExportTuples();
  ASSERT_EQ(frozen.size(), codes.size());
  for (const auto& q : queries) want.push_back(BruteForce(frozen, q, 4));

  std::atomic<bool> stop{false};
  Thread mutator([&] {
    Rng rng(53);
    TupleId next = 50000;
    while (!stop.load()) {
      const TupleId victim =
          static_cast<TupleId>(rng.UniformInt(0, 299));
      // Best-effort churn: repeat deletes of the same victim fail with
      // KeyError, which is fine — the point is published-state motion.
      (void)cha.Delete(victim, codes[victim]);
      (void)cha.Insert(next++, codes[victim]);
    }
  });

  // Wait until the mutator has demonstrably published past the pin —
  // otherwise a slow thread spawn would make the race vacuous.
  while (cha.epoch() <= pinned->epoch() + 10) {
    SleepFor(std::chrono::microseconds(100));
  }

  // While the mutator races, the pinned snapshot must keep answering
  // byte-identically to its frozen corpus.
  for (int round = 0; round < 60; ++round) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto got = Search(*pinned, queries[i], 4);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(Sorted(*got), want[i]) << "round " << round;
    }
  }
  stop.store(true);
  mutator.join();
  // The live index moved on while the pin held still.
  EXPECT_GT(cha.epoch(), pinned->epoch());
}

TEST(ConcurrentIndexSnapshot, BatchSeesExactlyOneEpoch) {
  // Toggle churn: each published epoch contains tuple X xor tuple Y
  // (publish_threshold = 2 makes the delete+insert pair atomic). A
  // batch probing both at h = 0 must find EXACTLY one — finding both or
  // neither would prove the batch straddled two epochs.
  const std::size_t kBits = 48;
  auto codes = RandomCodes(200, kBits, /*seed=*/59, /*clusters=*/8);
  BinaryCode code_x(kBits), code_y(kBits);
  for (std::size_t b = 0; b < kBits; ++b) {
    code_x.SetBit(b, b % 2 == 0);
    code_y.SetBit(b, b % 2 == 1);
  }
  // The crafted probes must be unique in the corpus for the h=0 test.
  for (const auto& c : codes) {
    ASSERT_FALSE(c == code_x);
    ASSERT_FALSE(c == code_y);
  }
  constexpr TupleId kIdX = 70001, kIdY = 70002;

  ConcurrentHAIndexOptions opts;
  opts.publish_threshold = 2;
  ConcurrentHAIndex cha(opts);
  {
    std::vector<TupleId> ids;
    std::vector<BinaryCode> all = codes;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ids.push_back(static_cast<TupleId>(i));
    }
    all.push_back(code_x);
    ids.push_back(kIdX);  // initial state: X live, Y absent
    ASSERT_TRUE(cha.BuildWithIds(ids, all).ok());
  }

  std::atomic<bool> stop{false};
  Thread mutator([&] {
    bool x_live = true;
    while (!stop.load()) {
      if (x_live) {
        ASSERT_TRUE(cha.Delete(kIdX, code_x).ok());
        ASSERT_TRUE(cha.Insert(kIdY, code_y).ok());  // publishes here
      } else {
        ASSERT_TRUE(cha.Delete(kIdY, code_y).ok());
        ASSERT_TRUE(cha.Insert(kIdX, code_x).ok());  // publishes here
      }
      x_live = !x_live;
    }
  });

  // Probe until BOTH phases have been observed (at least 200 rounds) —
  // waiting out thread-spawn/preemption skew instead of assuming the
  // scheduler interleaves. The round cap bounds a genuinely broken run.
  std::vector<QueryRequest> reqs = {QueryRequest::Range(code_x, 0),
                                    QueryRequest::Range(code_y, 0)};
  std::size_t saw_x = 0, saw_y = 0;
  for (int round = 0;
       round < 200 || ((saw_x == 0 || saw_y == 0) && round < 2000000);
       ++round) {
    std::vector<QueryResponse> resps(2);
    ASSERT_TRUE(cha.SearchBatch(reqs, resps).ok());
    ASSERT_TRUE(resps[0].status.ok() && resps[1].status.ok());
    const bool found_x = !resps[0].ids.empty();
    const bool found_y = !resps[1].ids.empty();
    ASSERT_NE(found_x, found_y)
        << "round " << round << ": batch mixed two epochs (x=" << found_x
        << " y=" << found_y << ")";
    saw_x += found_x;
    saw_y += found_y;
    if (saw_x == 0 || saw_y == 0) {
      SleepFor(std::chrono::microseconds(50));  // let the mutator run
    }
  }
  stop.store(true);
  mutator.join();
  // The toggle actually ran: both phases were observed.
  EXPECT_GT(saw_x, 0u);
  EXPECT_GT(saw_y, 0u);
}

TEST(ChurnStress, ManyReadersOneMutator) {
  auto codes = RandomCodes(400, 48, /*seed=*/61, /*clusters=*/8);
  auto queries = RandomCodes(16, 48, /*seed=*/67, /*clusters=*/8);
  ConcurrentHAIndexOptions opts;
  opts.rebuild_threshold = 64;  // exercise rebuild-during-reads too
  ConcurrentHAIndex cha(opts);
  ASSERT_TRUE(cha.Build(codes).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mutations{0};
  Thread mutator([&] {
    Rng rng(71);
    TupleId next = 90000;
    std::vector<std::pair<TupleId, BinaryCode>> mine;
    while (!stop.load()) {
      if (mine.empty() || rng.Bernoulli(0.6)) {
        const TupleId id = next++;
        const BinaryCode& code = codes[id % codes.size()];
        ASSERT_TRUE(cha.Insert(id, code).ok());
        mine.emplace_back(id, code);
      } else {
        auto& victim = mine[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<int64_t>(mine.size()) - 1))];
        ASSERT_TRUE(cha.Delete(victim.first, victim.second).ok());
        victim = mine.back();
        mine.pop_back();
      }
      ++mutations;
    }
  });

  constexpr std::size_t kReaders = 4;
  std::atomic<uint64_t> reads{0};
  {
    std::vector<Thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(100 + r);
        for (int round = 0; round < 120; ++round) {
          // Every read pins some epoch; its answers must match brute
          // force over that same epoch's frozen corpus.
          ConcurrentHAIndex::SnapshotPtr snap = cha.Pin();
          const auto frozen = snap->ExportTuples();
          const auto& q = queries[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1))];
          auto got = Search(*snap, q, 4);
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(Sorted(*got), BruteForce(frozen, q, 4))
              << "reader " << r << " round " << round << " epoch "
              << snap->epoch();
          // And the live surface stays well-formed under the same race.
          QueryRequest req = QueryRequest::Knn(q, 5);
          QueryResponse resp;
          ASSERT_TRUE(cha.KnnBatch({&req, 1}, {&resp, 1}).ok());
          ASSERT_TRUE(resp.status.ok());
          ++reads;
        }
      });
    }
    for (Thread& t : readers) t.join();
  }
  stop.store(true);
  mutator.join();

  EXPECT_EQ(reads.load(), kReaders * 120u);
  EXPECT_GT(mutations.load(), 0u);
  // Quiescent now: one more publish sweeps every retired snapshot.
  ASSERT_TRUE(cha.Publish().ok());
  EXPECT_EQ(cha.retired_snapshots(), 0u);
}

// ---------------------------------------------------------------------------
// DynamicHAIndex SwapRemove-era invariant audit (satellite of the epoch
// work: the snapshot layer trusts the base structure it freezes).
// ---------------------------------------------------------------------------

TEST(DynamicHAAudit, CheckConsistencyCleanAfterBuild) {
  auto codes = RandomCodes(200, 48, /*seed=*/73, /*clusters=*/8);
  DynamicHAIndex dha;
  ASSERT_TRUE(dha.Build(codes).ok());
  EXPECT_TRUE(dha.CheckConsistency().ok());
  EXPECT_EQ(dha.ExportTuples().size(), codes.size());
}

TEST(DynamicHAAudit, CheckConsistencyDifferentialChurn) {
  // Random insert/delete churn with periodic audits: the word-stride
  // buffer mirror, its bit-plane transpose, the forest frequencies and
  // the size accounting must agree after every SwapRemove-era mutation
  // pattern (delete-from-buffer, delete-from-leaf, flush, re-insert).
  auto pool = RandomCodes(256, 48, /*seed=*/79, /*clusters=*/8);
  DynamicHAIndexOptions dopts;
  dopts.insert_flush_threshold = 16;  // force frequent flushes
  DynamicHAIndex dha(dopts);
  std::vector<BinaryCode> initial(pool.begin(), pool.begin() + 64);
  ASSERT_TRUE(dha.Build(initial).ok());

  std::map<TupleId, BinaryCode> live;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    live.emplace(static_cast<TupleId>(i), initial[i]);
  }
  Rng rng(83);
  TupleId next_id = 5000;
  for (std::size_t step = 0; step < 400; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const TupleId id = next_id++;
      const BinaryCode& code = pool[id % pool.size()];
      ASSERT_TRUE(dha.Insert(id, code).ok());
      live.emplace(id, code);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(live.size()) - 1)));
      ASSERT_TRUE(dha.Delete(it->first, it->second).ok());
      live.erase(it);
    }
    if (step % 20 == 0) {
      ASSERT_TRUE(dha.CheckConsistency().ok()) << "step " << step;
    }
  }
  ASSERT_TRUE(dha.CheckConsistency().ok());

  // ExportTuples is exactly the live corpus.
  auto exported = dha.ExportTuples();
  ASSERT_EQ(exported.size(), live.size());
  for (const auto& [id, code] : exported) {
    auto it = live.find(id);
    ASSERT_TRUE(it != live.end()) << "exported unknown id " << id;
    EXPECT_TRUE(it->second == code) << "id " << id;
  }
}

}  // namespace
}  // namespace hamming
