// hammingdb_cli: build, persist, inspect and query HA-Indexes from the
// command line — the minimal operational surface a deployment needs.
//
//   hammingdb_cli build <codes.txt> <index.hdb>   # one 0/1 string per line
//   hammingdb_cli stats <index.hdb>
//   hammingdb_cli query <index.hdb> <code> <h>
//
//   $ printf '001001010\n101001010\n' > /tmp/codes.txt
//   $ ./build/examples/hammingdb_cli build /tmp/codes.txt /tmp/idx.hdb
//   $ ./build/examples/hammingdb_cli query /tmp/idx.hdb 101100010 3
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "observability/stopwatch.h"
#include "storage/persist.h"

namespace {

using namespace hamming;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hammingdb_cli build <codes.txt> <index.hdb>\n"
               "  hammingdb_cli stats <index.hdb>\n"
               "  hammingdb_cli query <index.hdb> <code> <h>\n");
  return 2;
}

int Build(const char* codes_path, const char* index_path) {
  std::ifstream in(codes_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", codes_path);
    return 1;
  }
  std::vector<BinaryCode> codes;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    auto code = BinaryCode::FromString(line);
    if (!code.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", codes_path, lineno,
                   code.status().ToString().c_str());
      return 1;
    }
    codes.push_back(*code);
  }
  obs::Stopwatch watch;
  DynamicHAIndex index;
  if (Status st = index.Build(codes); !st.ok()) {
    std::fprintf(stderr, "H-Build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  double build_ms = watch.ElapsedMillis();
  if (Status st = storage::SaveIndex(index_path, index); !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto stats = index.Stats();
  std::printf("indexed %zu codes in %.1f ms -> %s\n", codes.size(),
              build_ms, index_path);
  std::printf("  %zu leaves, %zu internal nodes, depth %zu, memory %s\n",
              stats.num_leaves, stats.num_internal_nodes, stats.depth,
              index.Memory().ToString().c_str());
  return 0;
}

int Stats(const char* index_path) {
  auto index = storage::LoadIndex(index_path);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  auto stats = index->Stats();
  std::printf("%s: %zu tuples\n", index_path, index->size());
  std::printf("  leaves: %zu\n", stats.num_leaves);
  std::printf("  internal nodes: %zu\n", stats.num_internal_nodes);
  std::printf("  edges: %zu\n", stats.num_edges);
  std::printf("  depth: %zu\n", stats.depth);
  std::printf("  memory: %s\n", index->Memory().ToString().c_str());
  return 0;
}

int Query(const char* index_path, const char* code_str, const char* h_str) {
  auto index = storage::LoadIndex(index_path);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  auto code = BinaryCode::FromString(code_str);
  if (!code.ok()) {
    std::fprintf(stderr, "bad query code: %s\n",
                 code.status().ToString().c_str());
    return 1;
  }
  long h = std::atol(h_str);
  if (h < 0) {
    std::fprintf(stderr, "threshold must be non-negative\n");
    return 1;
  }
  obs::Stopwatch watch;
  QueryRequest req = QueryRequest::Range(*code, static_cast<std::size_t>(h));
  QueryResponse resp;
  Status st = index->SearchBatch({&req, 1}, {&resp, 1});
  if (st.ok()) st = resp.status;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  double ms = watch.ElapsedMillis();
  std::vector<std::pair<TupleId, uint32_t>> result;
  for (std::size_t i = 0; i < resp.ids.size(); ++i) {
    result.emplace_back(resp.ids[i], resp.distances[i]);
  }
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  for (const auto& [id, dist] : result) {
    std::printf("%u\t%u\n", id, dist);
  }
  std::fprintf(stderr, "%zu matches in %.3f ms\n", result.size(), ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "build") == 0 && argc == 4) {
    return Build(argv[2], argv[3]);
  }
  if (std::strcmp(argv[1], "stats") == 0 && argc == 3) {
    return Stats(argv[2]);
  }
  if (std::strcmp(argv[1], "query") == 0 && argc == 5) {
    return Query(argv[2], argv[3], argv[4]);
  }
  return Usage();
}
