#include "index/hamming_index.h"

#include <algorithm>

namespace hamming {

Status HammingIndex::CheckBatchSpans(std::span<const QueryRequest> requests,
                                     std::span<QueryResponse> responses) {
  if (requests.size() != responses.size()) {
    return Status::InvalidArgument(
        "batch spans mismatch: " + std::to_string(requests.size()) +
        " requests vs " + std::to_string(responses.size()) + " responses");
  }
  return Status::OK();
}

void HammingIndex::SetUniqueMatches(
    std::vector<std::pair<TupleId, uint32_t>>* matches, QueryResponse* resp) {
  std::sort(matches->begin(), matches->end());
  matches->erase(std::unique(matches->begin(), matches->end()),
                 matches->end());
  resp->ids.reserve(matches->size());
  resp->distances.reserve(matches->size());
  for (const auto& [id, d] : *matches) {
    resp->ids.push_back(id);
    resp->distances.push_back(d);
  }
  resp->stats.results += matches->size();
}

Status HammingIndex::KnnBatch(std::span<const QueryRequest> requests,
                              std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  QueryRequest req;
  QueryResponse round;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    const std::size_t k = requests[i].k;
    if (k == 0 || size() == 0) continue;
    // k >= size() degenerates to "every tuple with its distance": the
    // target caps at size() so the expansion stops once all are seen.
    const std::size_t target = std::min(k, size());
    // No two L-bit codes are farther than L apart.
    const std::size_t max_radius =
        std::min(requests[i].code.size(), MaxRadius());
    req = QueryRequest::Range(requests[i].code, 0);
    std::size_t prior_results = 0;
    while (true) {
      HAMMING_RETURN_NOT_OK(SearchBatch({&req, 1}, {&round, 1}));
      ++resp.stats.radius_expansions;
      // Everything an earlier round returned is re-scanned (and
      // re-returned) by this one: the pure waste of radius expansion.
      resp.stats.rescanned_results += prior_results;
      resp.stats += round.stats;
      if (!round.status.ok()) {
        resp.status = round.status;
        break;
      }
      // Every tuple within h is present with its exact distance; with
      // >= target of them the k nearest overall are all here.
      if (round.ids.size() >= target || req.h >= max_radius) {
        resp.neighbors.reserve(round.ids.size());
        for (std::size_t j = 0; j < round.ids.size(); ++j) {
          resp.neighbors.emplace_back(round.ids[j], round.distances[j]);
        }
        break;
      }
      prior_results = round.ids.size();
      req.h = std::min(max_radius, 2 * req.h + 1);
    }
    std::sort(resp.neighbors.begin(), resp.neighbors.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    if (resp.neighbors.size() > k) resp.neighbors.resize(k);
  }
  return Status::OK();
}

}  // namespace hamming
