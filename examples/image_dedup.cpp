// Near-duplicate image detection — the paper's motivating application
// (Section 1): hash high-dimensional image features into binary codes
// with a learned Spectral Hashing function, then answer "find all images
// within Hamming distance h of this one" with the HA-Index, comparing
// against the linear-scan baseline.
//
//   $ ./build/examples/image_dedup
#include <algorithm>
#include <cstdio>

#include "observability/stopwatch.h"
#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "index/dynamic_ha_index.h"
#include "index/linear_scan.h"

int main() {
  using namespace hamming;

  // A synthetic image collection with NUS-WIDE-like 225-d color-moment
  // features (see DESIGN.md for the substitution rationale).
  const std::size_t kImages = 20000;
  std::printf("generating %zu synthetic image feature vectors (225-d)...\n",
              kImages);
  FloatMatrix images = GenerateDataset(DatasetKind::kNusWide, kImages);

  // Train the similarity hash on a sample and hash the collection.
  SpectralHashingOptions hopts;
  hopts.code_bits = 32;
  FloatMatrix sample = images.GatherRows([&] {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < 2000; ++i) ids.push_back(i * 10);
    return ids;
  }());
  auto hash = SpectralHashing::Train(sample, hopts).ValueOrDie();
  std::vector<BinaryCode> codes = hash->HashAll(images);
  std::printf("hashed to %zu-bit binary codes\n", hash->code_bits());

  // Index the codes.
  obs::Stopwatch watch;
  DynamicHAIndex index;
  if (Status st = index.Build(codes); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("H-Build over %zu codes: %.1f ms, memory %s\n", codes.size(),
              watch.ElapsedMillis(), index.Memory().ToString().c_str());

  // Pretend image 4242 was re-uploaded with slight edits: perturb its
  // features a little and look for near-duplicates.
  std::vector<double> edited(images.Row(4242).begin(),
                             images.Row(4242).end());
  Rng rng(7);
  for (double& v : edited) v += rng.Gaussian(0.0, 1e-3);
  BinaryCode probe = hash->Hash(edited);

  // A batch of one through the batch query surface; a real dedup
  // pipeline would coalesce many probes per SearchBatch call.
  hamming::QueryRequest req = hamming::QueryRequest::Range(probe, 3);
  hamming::QueryResponse resp;
  watch.Restart();
  // Well-formed probe over matching spans; failure is impossible.
  (void)index.SearchBatch({&req, 1}, {&resp, 1});
  double ha_ms = watch.ElapsedMillis();
  std::vector<TupleId> dup = std::move(resp.ids);

  LinearScanIndex scan;
  // Build on in-memory codes cannot fail.
  (void)scan.Build(codes);
  watch.Restart();
  // Same well-formed probe as above; failure is impossible.
  (void)scan.SearchBatch({&req, 1}, {&resp, 1});
  double scan_ms = watch.ElapsedMillis();
  std::vector<TupleId> dup_scan = std::move(resp.ids);
  std::sort(dup.begin(), dup.end());
  std::sort(dup_scan.begin(), dup_scan.end());

  std::printf("\nnear-duplicates of edited image 4242 (h<=3): %zu found\n",
              dup.size());
  bool found_original = false;
  for (TupleId id : dup) {
    if (id == 4242) found_original = true;
  }
  std::printf("original recovered: %s\n", found_original ? "yes" : "NO");
  std::printf("HA-Index: %.3f ms   linear scan: %.3f ms   speedup: %.1fx\n",
              ha_ms, scan_ms, scan_ms / (ha_ms > 0 ? ha_ms : 1e-9));
  std::printf("(both methods agree: %s)\n",
              dup == dup_scan ? "yes" : "NO");
  return found_original && dup == dup_scan ? 0 : 1;
}
