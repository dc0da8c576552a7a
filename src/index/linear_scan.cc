#include "index/linear_scan.h"

#include "kernels/hamming_kernels.h"

namespace hamming {

Status LinearScanIndex::Build(const std::vector<BinaryCode>& codes) {
  HAMMING_ASSIGN_OR_RETURN(codes_, kernels::CodeStore::FromCodes(codes));
  codes_.TransposeInto(&vcodes_);
  ids_.resize(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ids_[i] = static_cast<TupleId>(i);
  }
  return Status::OK();
}

Status LinearScanIndex::SearchBatch(std::span<const QueryRequest> requests,
                                    std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  const std::size_t n = ids_.size();
  // Requests whose (bits, h, n) pick the vertical layout run the
  // plane-pruning scan; the rest coalesce into one multi-query
  // horizontal scan. The split mirrors BatchWithinDistanceDual.
  const auto policy = kernels::ActiveLayoutPolicy();
  const bool mirror_ok = !vcodes_.empty() && vcodes_.size() == codes_.size() &&
                         vcodes_.bits() == codes_.bits();
  std::vector<std::size_t> coalesced;  // request indices, horizontal group
  std::vector<const BinaryCode*> queries;
  std::vector<std::size_t> radii;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    bool want_vertical;
    switch (policy) {
      case kernels::LayoutPolicy::kForceHorizontal:
        want_vertical = false;
        break;
      case kernels::LayoutPolicy::kForceVertical:
        want_vertical = true;
        break;
      default:
        want_vertical = kernels::ChooseLayout(codes_.bits(), requests[i].h,
                                              codes_.size()) ==
                        kernels::KernelLayout::kVertical;
    }
    if (want_vertical && mirror_ok) {
      std::vector<uint32_t> slots;
      kernels::VerticalScanStats vstats;
      kernels::BatchWithinDistance(requests[i].code, vcodes_, requests[i].h,
                                   &slots, &vstats);
      resp.ids.reserve(slots.size());
      resp.distances.reserve(slots.size());
      for (uint32_t slot : slots) {
        resp.ids.push_back(ids_[slot]);
        resp.distances.push_back(codes_.Distance(slot, requests[i].code));
      }
      resp.has_distances = true;
      ++resp.stats.kernel_batch_calls;
      resp.stats.candidates_generated += n;
      resp.stats.exact_distance_computations += n;
      resp.stats.results += resp.ids.size();
      resp.stats.planes_scanned += vstats.planes_scanned;
      resp.stats.blocks_pruned += vstats.blocks_pruned;
    } else {
      coalesced.push_back(i);
      queries.push_back(&requests[i].code);
      radii.push_back(requests[i].h);
    }
  }
  if (!coalesced.empty()) {
    std::vector<std::vector<kernels::SlotDistance>> hits;
    kernels::MultiWithinDistance(codes_, queries.data(), radii.data(),
                                 coalesced.size(), &hits);
    for (std::size_t g = 0; g < coalesced.size(); ++g) {
      QueryResponse& resp = responses[coalesced[g]];
      resp.ids.reserve(hits[g].size());
      resp.distances.reserve(hits[g].size());
      for (const auto& hit : hits[g]) {
        resp.ids.push_back(ids_[hit.slot]);
        resp.distances.push_back(hit.dist);
      }
      resp.has_distances = true;
      ++resp.stats.kernel_batch_calls;
      resp.stats.candidates_generated += n;
      resp.stats.exact_distance_computations += n;
      resp.stats.results += resp.ids.size();
    }
  }
  return Status::OK();
}

Status LinearScanIndex::KnnBatch(std::span<const QueryRequest> requests,
                                 std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  if (requests.empty()) return Status::OK();
  std::vector<const BinaryCode*> queries;
  std::vector<std::size_t> ks;
  queries.reserve(requests.size());
  ks.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    queries.push_back(&req.code);
    ks.push_back(req.k);
  }
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> nearest;
  kernels::MultiKnn(codes_, queries.data(), ks.data(), requests.size(),
                    &nearest);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    resp.neighbors.reserve(nearest[i].size());
    for (const auto& [slot, dist] : nearest[i]) {
      resp.neighbors.emplace_back(ids_[slot], dist);
    }
    ++resp.stats.kernel_batch_calls;
    resp.stats.candidates_generated += ids_.size();
    resp.stats.exact_distance_computations += ids_.size();
    resp.stats.results += resp.neighbors.size();
  }
  return Status::OK();
}

Status LinearScanIndex::Insert(TupleId id, const BinaryCode& code) {
  HAMMING_RETURN_NOT_OK(codes_.Append(code));
  HAMMING_RETURN_NOT_OK(vcodes_.Append(code));
  ids_.push_back(id);
  return Status::OK();
}

Status LinearScanIndex::Delete(TupleId id, const BinaryCode& code) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id && codes_.Matches(i, code)) {
      codes_.SwapRemove(i);
      vcodes_.SwapRemove(i);
      ids_[i] = ids_.back();
      ids_.pop_back();
      return Status::OK();
    }
  }
  return Status::KeyError("tuple not found in linear scan index");
}

MemoryBreakdown LinearScanIndex::Memory() const {
  MemoryBreakdown mb;
  mb.leaf_bytes += codes_.PackedBytes();
  // The vertical mirror doubles the code bytes held; account it as
  // index overhead rather than leaf payload.
  mb.internal_bytes += vcodes_.PackedBytes();
  mb.leaf_bytes += ids_.size() * sizeof(TupleId);
  return mb;
}

}  // namespace hamming
