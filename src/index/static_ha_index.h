// Static HA-Index (Section 4.3).
//
// Codes are cut into fixed-length contiguous segments; each *distinct*
// segment value at each segment position becomes one shared node (N1..N12
// in Figure 2), and a tuple is the path connecting its segment nodes.
// At query time the Hamming distance between the query and every shared
// node is computed exactly once per level ("the Hamming-distance
// computation for Nodes N6 and N11 will be performed only once"); tuples
// are then evaluated by summing their path's memoized node distances with
// early termination, and a level-local lower-bound prune (a node whose own
// distance already exceeds h disqualifies every path through it).
//
// Fixed segmentation is the variant's stated weakness: common substrings
// that do not align to segment boundaries are missed, which the Dynamic
// HA-Index (Section 4.4) fixes.
#pragma once

#include <unordered_map>

#include "index/hamming_index.h"
#include "kernels/vertical_code_store.h"

namespace hamming {

/// \brief Options for the static segmentation.
struct StaticHAIndexOptions {
  /// Segment width in bits (the paper's example uses 3; 8 suits L=32..64).
  /// Must be <= 64 so a segment packs into one table key.
  std::size_t segment_bits = 8;
};

/// \brief Segment-sharing static HA-Index.
class StaticHAIndex final : public HammingIndex {
 public:
  explicit StaticHAIndex(StaticHAIndexOptions opts = {}) : opts_(opts) {}

  std::string name() const override { return "SHA-Index"; }

  Status Build(const std::vector<BinaryCode>& codes) override;
  /// \brief Native batch range plan. Each request still walks the shared
  /// node structure independently (the node distances depend on the
  /// query), but the batch refreshes the row-group cache once and reuses
  /// one set of per-level scratch buffers across the whole batch. The
  /// path walk sums each match's exact distance anyway; a request routed
  /// to the vertical plane scan (small h over a large store) gets each
  /// survivor's distance from its path nodes, one popcount per level.
  /// \note The row-group cache is rebuilt lazily after updates, so the
  /// *first* SearchBatch following Build/Insert/Delete is not safe to
  /// race with other searches. Issue one warming query before sharing
  /// the index across threads.
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;

  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return paths_.size(); }
  MemoryBreakdown Memory() const override;

  /// \brief Total shared segment nodes across levels (|V| in §4.7).
  std::size_t NodeCount() const;

 private:
  struct Level {
    std::size_t begin = 0;  // first bit position of the segment
    std::size_t len = 0;    // segment width in bits
    std::vector<uint64_t> node_values;                  // node idx -> value
    std::vector<uint32_t> node_refcount;                // live paths through
    std::unordered_map<uint64_t, uint32_t> value_to_node;
  };

  /// Per-query scratch reused across a batch so SearchBatch does not
  /// reallocate the per-level distance tables for every request.
  struct SearchScratch {
    std::vector<std::vector<uint16_t>> node_dist;
    std::vector<uint16_t> level_min;
    std::vector<std::size_t> min_rest;
  };

  Status EnsureLayout(const BinaryCode& code);
  uint32_t InternNode(Level* level, uint64_t value);

  /// The single-query engine behind SearchBatch: fills resp's ids,
  /// distances and stats.
  Status SearchOne(const BinaryCode& query, std::size_t h,
                   QueryResponse* resp, SearchScratch* scratch) const;

  /// Rebuilds groups_ (rows bucketed by their level-0 node) when stale.
  void RefreshGroups() const;

  StaticHAIndexOptions opts_;
  std::size_t code_bits_ = 0;
  std::vector<Level> levels_;
  // Tuple paths: per tuple, one node index per level (flattened).
  std::vector<uint32_t> path_nodes_;        // paths_.size() * levels_.size()
  std::vector<TupleId> paths_;              // row -> tuple id
  std::unordered_map<TupleId, std::size_t> id_to_row_;
  // Search acceleration: rows grouped by level-0 node so one disqualified
  // shared node skips its whole group (the Figure 2 sharing win). Lazily
  // rebuilt after updates.
  mutable std::vector<std::vector<uint32_t>> groups_;  // node0 -> rows
  mutable bool groups_stale_ = true;
  // Bit-plane sidecar of the full codes, row-aligned with paths_ (Delete
  // swap-removes both). The node walk has no CodeStore to reuse, so this
  // is the only full-code copy; selective queries on large stores scan it
  // with the vertical kernel instead of walking paths.
  kernels::VerticalCodeStore vcodes_;
};

}  // namespace hamming
