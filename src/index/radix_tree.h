// Bitwise PATRICIA / radix-tree index (Section 4.2).
//
// Codes sharing a prefix share one path-compressed edge, so the Hamming
// distance of a common prefix FLSS is computed once for all tuples below
// it; the downward-closure property (Proposition 1) lets the search prune
// a whole subtree as soon as the accumulated prefix distance exceeds h.
// The structure is prefix-sensitive — codes differing in the first bit
// split at the root however similar their tails are — which is exactly the
// weakness the HA-Index addresses.
#pragma once

#include <memory>

#include "index/hamming_index.h"

namespace hamming {

/// \brief Path-compressed binary trie over equal-length codes.
class RadixTreeIndex final : public HammingIndex {
 public:
  std::string name() const override { return "Radix-Tree"; }

  Status Build(const std::vector<BinaryCode>& codes) override;
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;
  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return size_; }
  MemoryBreakdown Memory() const override;

  /// \brief Number of trie nodes (for the analysis tests).
  std::size_t NodeCount() const;

 private:
  struct Node {
    // Edge label: bits [depth, depth+label_len) of every code below.
    BinaryCode label;        // label bits stored at positions [0, label_len)
    std::size_t label_len = 0;
    std::unique_ptr<Node> child[2];
    std::vector<TupleId> ids;  // non-empty only at full-depth leaves

    bool IsLeaf() const { return !child[0] && !child[1]; }
  };

  Status SearchOne(const BinaryCode& query, std::size_t h,
                   QueryResponse* resp) const;
  static void CountNodes(const Node* n, std::size_t* count);
  static void AccountNode(const Node* n, MemoryBreakdown* mb);

  std::unique_ptr<Node> root_;
  std::size_t code_bits_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hamming
