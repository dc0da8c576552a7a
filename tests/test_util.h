// Shared helpers for the hamming-db test suite.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "code/binary_code.h"
#include "index/dynamic_ha_index.h"
#include "index/hamming_index.h"
#include "index/hengine.h"
#include "index/hmsearch.h"
#include "index/linear_scan.h"
#include "index/multi_hash_table.h"
#include "index/radix_tree.h"
#include "index/static_ha_index.h"
#include "kernels/hamming_kernels.h"

namespace hamming {

/// \brief Sorts a search result for deterministic comparison.
inline std::vector<TupleId> Sorted(std::vector<TupleId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace hamming

namespace hamming::testutil {

/// \brief Runs `req` against `index` as a batch of one — through KnnBatch
/// for a kNN request, SearchBatch otherwise — and returns its response,
/// or the batch-level or per-request error. When `stats` is non-null the
/// response's work counters are added to it.
inline Result<QueryResponse> RunOne(const HammingIndex& index,
                                    const QueryRequest& req,
                                    obs::QueryStats* stats = nullptr) {
  QueryResponse resp;
  HAMMING_RETURN_NOT_OK(req.kind == QueryKind::kKnn
                            ? index.KnnBatch({&req, 1}, {&resp, 1})
                            : index.SearchBatch({&req, 1}, {&resp, 1}));
  if (stats != nullptr) *stats += resp.stats;
  HAMMING_RETURN_NOT_OK(resp.status);
  return resp;
}

/// \brief The ids of one range query (RunOne over QueryRequest::Range).
inline Result<std::vector<TupleId>> Search(const HammingIndex& index,
                                           const BinaryCode& query,
                                           std::size_t h,
                                           obs::QueryStats* stats = nullptr) {
  HAMMING_ASSIGN_OR_RETURN(QueryResponse resp,
                           RunOne(index, QueryRequest::Range(query, h), stats));
  return std::move(resp.ids);
}

/// \brief The (id, distance) neighbours of one kNN query (RunOne over
/// QueryRequest::Knn), ascending by distance then id.
inline Result<std::vector<std::pair<TupleId, uint32_t>>> Knn(
    const HammingIndex& index, const BinaryCode& query, std::size_t k,
    obs::QueryStats* stats = nullptr) {
  HAMMING_ASSIGN_OR_RETURN(QueryResponse resp,
                           RunOne(index, QueryRequest::Knn(query, k), stats));
  return std::move(resp.neighbors);
}

/// \brief `n` random codes of `bits` bits. When cluster > 1, codes are
/// generated around cluster centers with few flipped bits so the data has
/// the clustered structure hashed real datasets exhibit.
inline std::vector<BinaryCode> RandomCodes(std::size_t n, std::size_t bits,
                                           uint64_t seed = 42,
                                           std::size_t clusters = 1,
                                           std::size_t flip_bits = 4) {
  Rng rng(seed);
  std::vector<BinaryCode> out;
  out.reserve(n);
  if (clusters <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      BinaryCode c(bits);
      for (std::size_t b = 0; b < bits; ++b) {
        if (rng.Bernoulli(0.5)) c.SetBit(b, true);
      }
      out.push_back(c);
    }
    return out;
  }
  std::vector<BinaryCode> centers = RandomCodes(clusters, bits, seed ^ 0x77);
  for (std::size_t i = 0; i < n; ++i) {
    BinaryCode c = centers[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(clusters) - 1))];
    std::size_t flips = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(flip_bits)));
    for (std::size_t f = 0; f < flips; ++f) {
      c.FlipBit(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
    }
    out.push_back(c);
  }
  return out;
}

/// \brief Pins the kernel layout policy for one scope.
class ScopedLayout {
 public:
  explicit ScopedLayout(kernels::LayoutPolicy p)
      : prev_(kernels::ActiveLayoutPolicy()) {
    kernels::SetLayoutPolicy(p);
  }
  ~ScopedLayout() { kernels::SetLayoutPolicy(prev_); }

 private:
  kernels::LayoutPolicy prev_;
};

/// \brief Names of all index implementations under test.
inline std::vector<std::string> AllIndexNames() {
  return {"linear", "mh4",  "mh10", "hengine", "hmsearch",
          "radix",  "sha8", "sha4", "dha",     "dha-w4",
          "dha-w32"};
}

/// \brief Factory keyed by name; h_max sizes the signature indexes.
inline std::unique_ptr<HammingIndex> MakeIndex(const std::string& name,
                                               std::size_t h_max = 8) {
  if (name == "linear") return std::make_unique<LinearScanIndex>();
  if (name == "mh4") return std::make_unique<MultiHashTableIndex>(4);
  if (name == "mh10") return std::make_unique<MultiHashTableIndex>(10);
  if (name == "hengine") return std::make_unique<HEngineIndex>(h_max);
  if (name == "hmsearch") return std::make_unique<HmSearchIndex>(h_max);
  if (name == "radix") return std::make_unique<RadixTreeIndex>();
  if (name == "sha8") {
    return std::make_unique<StaticHAIndex>(StaticHAIndexOptions{8});
  }
  if (name == "sha4") {
    return std::make_unique<StaticHAIndex>(StaticHAIndexOptions{4});
  }
  if (name == "dha") return std::make_unique<DynamicHAIndex>();
  if (name == "dha-w4") {
    DynamicHAIndexOptions o;
    o.window = 4;
    return std::make_unique<DynamicHAIndex>(o);
  }
  if (name == "dha-w32") {
    DynamicHAIndexOptions o;
    o.window = 32;
    return std::make_unique<DynamicHAIndex>(o);
  }
  return nullptr;
}

/// \brief The Table 2a example codes from the paper.
inline std::vector<BinaryCode> PaperTableS() {
  const char* rows[] = {"001001010", "001011101", "011001100", "101001010",
                        "101110110", "101011101", "101101010", "111001100"};
  std::vector<BinaryCode> out;
  for (const char* r : rows) {
    out.push_back(BinaryCode::FromString(r).ValueOrDie());
  }
  return out;
}

/// \brief The Table 2b example codes (dataset R).
inline std::vector<BinaryCode> PaperTableR() {
  const char* rows[] = {"101100010", "101010010", "110000010"};
  std::vector<BinaryCode> out;
  for (const char* r : rows) {
    out.push_back(BinaryCode::FromString(r).ValueOrDie());
  }
  return out;
}

}  // namespace hamming::testutil
