// Quickstart: index binary codes in a Dynamic HA-Index and answer a
// Hamming range query — the Table 2 / Example 1 walk-through from the
// paper, in a dozen lines of library code.
//
//   $ ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "index/dynamic_ha_index.h"

int main() {
  using hamming::BinaryCode;
  using hamming::DynamicHAIndex;

  // Table 2a: dataset S as 9-bit binary codes.
  const char* table_s[] = {"001001010", "001011101", "011001100",
                           "101001010", "101110110", "101011101",
                           "101101010", "111001100"};
  std::vector<BinaryCode> codes;
  for (const char* row : table_s) {
    codes.push_back(BinaryCode::FromString(row).ValueOrDie());
  }

  // Build the index (H-Build: Gray sort + sliding-window FLSSeq
  // sharing); window 2 reproduces the two-leaf grouping of Figure 3.
  hamming::DynamicHAIndexOptions opts;
  opts.window = 2;
  DynamicHAIndex index(opts);
  hamming::Status st = index.Build(codes);
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Example 1: h-select(tq, S) with tq = "101100010" and h = 3, through
  // the batch query surface (a batch of one).
  auto tq = BinaryCode::FromString("101100010").ValueOrDie();
  hamming::QueryRequest req = hamming::QueryRequest::Range(tq, /*radius=*/3);
  hamming::QueryResponse resp;
  st = index.SearchBatch({&req, 1}, {&resp, 1});
  if (!st.ok() || !resp.status.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 (st.ok() ? resp.status : st).ToString().c_str());
    return 1;
  }

  std::printf("h-select(tq=%s, h=3) = {", tq.ToString().c_str());
  std::vector<hamming::TupleId> ids = resp.ids;
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::printf("%st%u", i ? ", " : "", ids[i]);
  }
  std::printf("}\n");
  std::printf("expected (paper Example 1): {t0, t3, t4, t6}\n");

  auto stats = index.Stats();
  std::printf("index: %zu leaves, %zu internal nodes, depth %zu\n",
              stats.num_leaves, stats.num_internal_nodes, stats.depth);
  return ids == std::vector<hamming::TupleId>{0, 3, 4, 6} ? 0 : 1;
}
