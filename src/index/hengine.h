// HEngine (Liu, Shen, Torng — ICDE'11), the paper's strongest centralized
// baseline before the HA-Index.
//
// Refined pigeonhole: cutting L bits into s = ceil((h+1)/2) segments
// guarantees that two codes within distance h agree on some segment up to
// at most one differing bit. HEngine keeps one sorted signature table per
// segment; a query enumerates its own segment value plus every 1-bit
// variant of it ("one-bit differing binary code" in the paper's wording)
// and binary-searches each table, verifying candidates against the full
// code. Memory is lower than Manku's full duplication but query work
// grows with h through the variant enumeration — the sensitivity to h the
// paper observes in Figure 6.
#pragma once

#include <unordered_map>

#include "index/hamming_index.h"

namespace hamming {

/// \brief HEngine-S static signature index for thresholds up to h_max.
class HEngineIndex final : public HammingIndex {
 public:
  /// \param h_max largest query threshold the segmentation must stay
  ///   exact for.
  explicit HEngineIndex(std::size_t h_max) : h_max_(h_max) {}

  std::string name() const override { return "HEngine"; }

  Status Build(const std::vector<BinaryCode>& codes) override;
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;
  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return id_to_slot_.size(); }
  MemoryBreakdown Memory() const override;
  std::size_t MaxRadius() const override { return h_max_; }

  std::size_t num_segments() const { return num_segments_; }

 private:
  std::pair<std::size_t, std::size_t> SegmentRange(std::size_t s) const;
  Status SearchOne(const BinaryCode& query, std::size_t h,
                   QueryResponse* resp) const;

  struct Entry {
    uint64_t key;
    TupleId id;
    uint32_t slot;  // index into code_store_ for O(1) verification
    bool operator<(const Entry& other) const {
      if (key != other.key) return key < other.key;
      return id < other.id;
    }
  };

  std::size_t h_max_;
  std::size_t num_segments_ = 0;
  std::size_t code_bits_ = 0;
  std::vector<std::vector<Entry>> tables_;  // kept sorted per segment
  // Dense fingerprint store; candidate verification reads it directly
  // instead of chasing a hash map. Slots of deleted tuples go stale but
  // are unreachable (their entries are removed from every table).
  std::vector<BinaryCode> code_store_;
  std::unordered_map<TupleId, uint32_t> id_to_slot_;
};

}  // namespace hamming
