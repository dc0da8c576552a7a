// The common interface for every Hamming-select index in the library
// (Section 3: h-select(tq, S) returns all tuples within Hamming distance h
// of the query's binary code).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "code/binary_code.h"
#include "common/result.h"
#include "common/status.h"
#include "index/query.h"
#include "observability/memtrack.h"
#include "observability/query_stats.h"

namespace hamming {

// MemoryBreakdown is part of the index API (every index reports its
// footprint through Memory()); re-exported here so implementations and
// callers keep using the unqualified name.
using obs::MemoryBreakdown;

/// \brief Identifier of a tuple within a dataset (its row number).
using TupleId = uint32_t;

/// \brief One Hamming-join result pair: (id in R, id in S).
struct JoinPair {
  TupleId r;
  TupleId s;
  bool operator==(const JoinPair& other) const {
    return r == other.r && s == other.s;
  }
  bool operator<(const JoinPair& other) const {
    if (r != other.r) return r < other.r;
    return s < other.s;
  }
};

/// \brief Abstract index over a collection of equal-length binary codes
/// answering Hamming range and kNN queries. SearchBatch and KnnBatch are
/// its only query entry points; a single query is a batch of one.
///
/// Implementations: LinearScanIndex, MultiHashTableIndex, HEngineIndex,
/// HmSearchIndex, RadixTreeIndex, StaticHAIndex, DynamicHAIndex,
/// ConcurrentHAIndex.
///
/// Thread contract: the const entry points are safe to call from many
/// threads concurrently as long as no thread mutates the index — plain
/// indexes are externally synchronized. ConcurrentHAIndex is the
/// internally synchronized exception: its readers may overlap an
/// Insert/Delete stream and each batch call is answered against one
/// published epoch snapshot (see index/concurrent_ha_index.h).
class HammingIndex {
 public:
  virtual ~HammingIndex() = default;

  /// \brief Human-readable name used by the bench harnesses
  /// ("DHA-Index", "MH-4", ...).
  virtual std::string name() const = 0;

  /// \brief Bulk-loads the index over codes[0..n); tuple i gets id i.
  /// Replaces any previous contents.
  virtual Status Build(const std::vector<BinaryCode>& codes) = 0;

  /// \brief The range query h-select(tq, S): answers requests[i] (its
  /// `code`/`h` fields, whatever its `kind`) into responses[i]. An OK
  /// response holds every tuple within distance h in `ids` (order
  /// unspecified) and, parallel to it, each one's exact Hamming distance
  /// in `distances`; `has_distances` is set. A failed request carries
  /// its error in responses[i].status and no ids. The returned Status is
  /// non-OK only for batch-level misuse (span size mismatch). Requests
  /// in one batch are independent: a response is the same whether its
  /// query runs alone or in a batch.
  ///
  /// Every family computes the distance while verifying candidates, so
  /// it costs nothing extra on the structure-walking paths; survivors of
  /// a vertical (bit-plane) scan get theirs by one popcount over the
  /// code data the index already holds. `responses[i].stats` receives
  /// the query's work counters (observability/query_stats.h).
  virtual Status SearchBatch(std::span<const QueryRequest> requests,
                             std::span<QueryResponse> responses) const = 0;

  /// \brief kNN: answers requests[i] (its `code`/`k` fields) into
  /// responses[i].neighbors as (id, distance) ascending by distance,
  /// then id. Same batch contract as SearchBatch.
  ///
  /// The default expands the radius geometrically (h = 0, 1, 3, 7, ...)
  /// through SearchBatch: the first radius with >= k matches already
  /// carries every distance needed to rank them, so a query costs
  /// O(log L) rounds. The radius never exceeds MaxRadius(); a family
  /// with a bounded radius returns fewer than k neighbours when fewer
  /// lie within its bound. Each round's re-returned matches count in
  /// QueryStats::rescanned_results. LinearScanIndex overrides this with
  /// one multi-query bounded-heap scan (kernels::MultiKnn).
  virtual Status KnnBatch(std::span<const QueryRequest> requests,
                          std::span<QueryResponse> responses) const;

  /// \brief The largest radius SearchBatch answers exactly. Unbounded by
  /// default; the signature indexes (MH, HEngine, HmSearch) are exact up
  /// to the h_max their layout was built for.
  virtual std::size_t MaxRadius() const {
    return std::numeric_limits<std::size_t>::max();
  }

  /// \brief Inserts one (id, code) pair.
  virtual Status Insert(TupleId id, const BinaryCode& code) = 0;

  /// \brief Removes one (id, code) pair; KeyError if absent.
  virtual Status Delete(TupleId id, const BinaryCode& code) = 0;

  /// \brief Number of indexed tuples.
  virtual std::size_t size() const = 0;

  /// \brief Structural memory accounting for the Table 4 comparison.
  virtual MemoryBreakdown Memory() const = 0;

  /// \brief True if the index supports dynamic Insert/Delete (the static
  /// HA-Index and signature indexes rebuild instead).
  virtual bool SupportsDynamicUpdates() const { return true; }

 protected:
  /// \brief Shared guard of the batch entry points: the spans must pair
  /// up 1:1. Overrides call this first.
  static Status CheckBatchSpans(std::span<const QueryRequest> requests,
                                std::span<QueryResponse> responses);

  /// \brief Fills resp's ids/distances from (id, distance) matches of a
  /// multi-probe index, dropping the duplicates found by several probes,
  /// and counts them in resp->stats.results.
  static void SetUniqueMatches(
      std::vector<std::pair<TupleId, uint32_t>>* matches, QueryResponse* resp);

  /// \brief The per-request loop of a SearchBatch override: clears each
  /// response, runs `search_one(request, &response)` and records the
  /// outcome — has_distances on success, the error and no matches on
  /// failure.
  template <typename SearchOne>
  static Status SearchEach(std::span<const QueryRequest> requests,
                           std::span<QueryResponse> responses,
                           SearchOne&& search_one) {
    HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      QueryResponse& resp = responses[i];
      resp.Clear();
      Status st = search_one(requests[i], &resp);
      if (st.ok()) {
        resp.has_distances = true;
      } else {
        resp.ids.clear();
        resp.distances.clear();
        resp.status = std::move(st);
      }
    }
    return Status::OK();
  }
};

}  // namespace hamming
