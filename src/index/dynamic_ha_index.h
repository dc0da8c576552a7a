// Dynamic HA-Index (Sections 4.4 - 4.6): the paper's primary contribution.
//
// Structure. A forest whose leaves are the distinct binary codes of the
// dataset (with a per-leaf hash table of tuple ids) and whose internal
// nodes carry FLSSeq patterns (MaskedCode) shared by all leaves below.
// Each node stores its *residual* pattern — the effective positions not
// already covered by an ancestor — so the masks along any root-to-leaf
// path partition the L bit positions and partial distances accumulated
// down a path sum to the exact Hamming distance at the leaf. Pruning on
// the accumulated distance is therefore safe (Proposition 1) and the leaf
// test needs no re-verification.
//
// H-Build (Algorithm 1). Codes are sorted in Gray order (Proposition 2:
// neighbours share long FLSSeqs), then scanned with a sliding window of w
// slots; each window's maximal common FLSSeq becomes a parent node, nodes
// with identical patterns are consolidated, and windows with no shared
// pattern are linked directly to the top level. Levels are built bottom-up
// until the configured depth.
//
// H-Delete (Algorithm 2) walks down through bitmatch-ing nodes,
// decrements frequencies, and removes nodes whose frequency reaches zero.
// Insert (Section 4.5) goes to a temporary buffer; when the buffer fills,
// an H-Build over the buffered tuples appends new subtrees.
//
// H-Search (Algorithm 3) is a breadth-first traversal with a queue,
// expanding a node's children only while the accumulated distance stays
// within h, and collecting tuple ids at qualifying leaves.
#pragma once

#include <unordered_map>

#include "code/masked_code.h"
#include "index/hamming_index.h"
#include "kernels/code_store.h"

namespace hamming {

/// \brief How H-Build orders codes before windowing (ablation knob; the
/// paper prescribes Gray order, Proposition 2).
enum class BuildSortMode {
  kGray,          // the paper's choice
  kLexicographic, // plain binary sort (prefix clustering only)
  kNone,          // input order (no clustering)
};

/// \brief Tuning parameters of H-Build (the Figure 8 sweep).
struct DynamicHAIndexOptions {
  /// Sliding-window slots w of Algorithm 1.
  std::size_t window = 8;
  /// Pre-windowing sort order (ablation; Gray is the paper's design).
  BuildSortMode sort_mode = BuildSortMode::kGray;
  /// Maximum index depth md (number of internal levels above the leaves).
  std::size_t max_depth = 16;
  /// Buffered inserts accumulated before an incremental H-Build.
  std::size_t insert_flush_threshold = 1024;
  /// When false the index keeps no tuple-id hash tables at the leaves:
  /// SearchBatch is unavailable but SearchCodes still works. This is the
  /// leafless mode Section 5.3's MapReduce Option B broadcasts.
  bool store_tuple_ids = true;
};

/// \brief Statistics exposed for the Section 4.7 analysis tests.
struct HAIndexStats {
  std::size_t num_internal_nodes = 0;
  std::size_t num_leaves = 0;
  std::size_t num_edges = 0;
  std::size_t depth = 0;
};

/// \brief The Dynamic HA-Index.
class DynamicHAIndex final : public HammingIndex {
 public:
  explicit DynamicHAIndex(DynamicHAIndexOptions opts = {}) : opts_(opts) {}

  std::string name() const override { return "DHA-Index"; }

  Status Build(const std::vector<BinaryCode>& codes) override;

  /// \brief Bulk H-Build where tuple ids are supplied by the caller
  /// (MapReduce reducers index partition tuples whose ids are global row
  /// numbers, not local positions).
  Status BuildWithIds(const std::vector<TupleId>& ids,
                      const std::vector<BinaryCode>& codes);

  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return num_tuples_; }
  MemoryBreakdown Memory() const override;

  /// \brief H-Search (Algorithm 3) per request. The residual masks along
  /// a root-to-leaf path partition the L bits, so the distance a leaf is
  /// reached with is exact and every match carries it at no extra cost;
  /// buffered inserts get theirs from one batched distance pass.
  /// Requests fail with NotImplemented on a leafless index.
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;

  /// \brief Qualifying distinct *codes* within distance h (works in
  /// leafless mode; used by MapReduce Option B, Section 5.3). Same
  /// H-Search traversal as SearchBatch, with a leaf visitor that keeps
  /// the code instead of the tuple ids.
  Result<std::vector<BinaryCode>> SearchCodes(
      const BinaryCode& query, std::size_t h,
      obs::QueryStats* stats = nullptr) const;

  /// \brief Dual-tree Hamming join (extension beyond the paper): joins
  /// this index (R side) with another (S side) by simultaneous traversal.
  ///
  /// For a pair of nodes the count of differing bits on the positions
  /// *both* cumulative patterns determine is a lower bound on the
  /// distance of every (r, s) pair below them, so whole subtree pairs are
  /// pruned at once — the paper's per-tuple H-Search probing repeats the
  /// R-side descent for every S tuple instead. Both indexes must store
  /// tuple ids. Pairs are (id in this, id in other).
  Result<std::vector<JoinPair>> JoinWith(const DynamicHAIndex& other,
                                         std::size_t h) const;

  /// \brief Structural statistics (node/edge counts, depth).
  HAIndexStats Stats() const;

  /// \brief The indexed corpus as (id, code) pairs — leaf walk plus the
  /// insert buffer, order unspecified. Requires store_tuple_ids. The
  /// epoch layer's snapshot tests use it as the frozen ground truth;
  /// rebuilds of a wrapped index source from it.
  std::vector<std::pair<TupleId, BinaryCode>> ExportTuples() const;

  /// \brief Audits the SwapRemove-era cross-structure invariants after a
  /// mutation stream: the insert buffer and its kernel store agree
  /// slot-for-slot, every forest frequency equals the live tuples below
  /// it, and size() equals leaves + buffer.
  /// Returns the first violated invariant; OK when consistent. Test and
  /// debug hook — walks the whole structure, not for hot paths.
  Status CheckConsistency() const;

  /// \brief Merges another HA-Index into this one (the global-index merge
  /// of Section 5.2): the other forest's roots are adopted, and roots
  /// whose FLSSeq equals an existing root's are consolidated.
  Status MergeFrom(const DynamicHAIndex& other);

  /// \brief Serialization for the MapReduce distributed cache.
  void Serialize(BufferWriter* w) const;
  static Result<DynamicHAIndex> Deserialize(BufferReader* r);

  const DynamicHAIndexOptions& options() const { return opts_; }

 private:
  static constexpr int32_t kNoParent = -1;

  struct Node {
    MaskedCode residual;   // pattern positions not covered by ancestors
    MaskedCode cumulative; // full subtree agreement (positions incl. anc.)
    int32_t parent = kNoParent;
    std::vector<uint32_t> children;
    std::vector<TupleId> tuple_ids;  // leaves only, when store_tuple_ids
    uint32_t frequency = 0;          // live tuples below
    bool is_leaf = false;
    bool alive = true;
  };

  /// Runs Algorithm 1 over (code, ids) groups, appending nodes to nodes_
  /// and new roots to roots_.
  void BuildForest(
      std::vector<std::pair<BinaryCode, std::vector<TupleId>>> groups);

  /// H-Search (Algorithm 3): breadth-first over the forest, expanding a
  /// node's children only while the accumulated distance stays within h;
  /// calls on_leaf(leaf, distance) for every qualifying leaf. The
  /// visitor is a template parameter so each caller's leaf work inlines
  /// into the traversal.
  template <typename OnLeaf>
  void Walk(const BinaryCode& query, std::size_t h, obs::QueryStats* stats,
            OnLeaf&& on_leaf) const;

  uint32_t NewNode();
  void ComputeResiduals(uint32_t root);
  void FlushBuffer();
  /// Removes `node` from its parent (or the root list) and propagates
  /// frequency decrements / dead-node removal upward.
  void DetachAndPropagate(uint32_t node, uint32_t count);

  DynamicHAIndexOptions opts_;
  std::size_t code_bits_ = 0;
  std::size_t num_tuples_ = 0;
  std::vector<Node> nodes_;
  std::vector<uint32_t> roots_;
  // Insert buffer (Section 4.5). buffer_store_ mirrors the buffered codes
  // in word-stride form so the per-query buffer scan is one batched
  // distance pass instead of one Distance call per code. At the default
  // flush threshold (1024) the buffer never reaches the vertical
  // kernel's profitability floor (kernels::kVerticalMinCodes = 4096), so
  // it keeps no bit-plane mirror.
  std::vector<std::pair<TupleId, BinaryCode>> buffer_;
  kernels::CodeStore buffer_store_;
};

}  // namespace hamming
