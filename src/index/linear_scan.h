// Nested-Loops baseline (Section 3): a flat array of codes scanned with
// XOR + popcount per query. O(n) reads and O(n) distance computations per
// select; the quadratic-join strawman every other method is measured
// against. Codes live in a word-stride CodeStore so the scan runs through
// the batched kernels (kernels/hamming_kernels.h) instead of one
// BinaryCode call per code; a bit-plane-major mirror of the same codes
// lets selective (small-h) searches take the vertical plane-pruning
// kernel instead (BatchWithinDistanceDual picks per query).
#pragma once

#include "index/hamming_index.h"
#include "kernels/code_store.h"
#include "kernels/vertical_code_store.h"

namespace hamming {

/// \brief The naive scan index.
class LinearScanIndex final : public HammingIndex {
 public:
  std::string name() const override { return "Nested-Loops"; }

  Status Build(const std::vector<BinaryCode>& codes) override;
  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return ids_.size(); }
  MemoryBreakdown Memory() const override;

  /// \brief Native batch range plan: requests whose radius picks the
  /// vertical layout run the plane-pruning scan (their survivors' exact
  /// distances come from one popcount each over the horizontal store),
  /// and the rest coalesce into ONE tile-major multi-query kernel call
  /// (kernels::MultiWithinDistance) that streams the word lanes once for
  /// the whole group and reports exact distances per match.
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;

  /// \brief Native batch kNN: one multi-query scan with a bounded top-k
  /// heap per query (kernels::MultiKnn) instead of the base class's
  /// radius expansion.
  Status KnnBatch(std::span<const QueryRequest> requests,
                  std::span<QueryResponse> responses) const override;

 private:
  kernels::CodeStore codes_;
  // Transposed mirror of codes_, maintained through every mutation so
  // threshold scans can run the vertical kernel.
  kernels::VerticalCodeStore vcodes_;
  std::vector<TupleId> ids_;
};

}  // namespace hamming
