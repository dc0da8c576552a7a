#include "index/multi_hash_table.h"

#include <algorithm>

#include "kernels/hamming_kernels.h"

namespace hamming {

namespace {

std::size_t Choose(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::size_t out = 1;
  for (std::size_t i = 0; i < k; ++i) {
    out = out * (n - i) / (i + 1);
  }
  return out;
}

// All k-subsets of [0, n), lexicographic.
std::vector<std::vector<uint8_t>> Combinations(std::size_t n, std::size_t k) {
  std::vector<std::vector<uint8_t>> out;
  std::vector<uint8_t> cur;
  // Iterative subset enumeration via the classic odometer.
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  if (k == 0) {
    out.push_back({});
    return out;
  }
  if (k > n) return out;
  for (;;) {
    cur.assign(idx.begin(), idx.end());
    out.push_back(cur);
    // Advance.
    std::size_t i = k;
    while (i-- > 0) {
      if (idx[i] + (k - i) < n) {
        ++idx[i];
        for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return out;
    }
  }
}

}  // namespace

Status MultiHashTableIndex::AppendToBucket(Bucket* bucket, TupleId id,
                                           const BinaryCode& code) {
  bucket->ids.push_back(id);
  HAMMING_RETURN_NOT_OK(bucket->codes.Append(code));
  // Activate the bit-plane mirror only once the bucket could plausibly
  // take the vertical scan; transpose the backlog on first crossing and
  // append incrementally from then on.
  if (bucket->codes.size() >= kernels::kVerticalMinCodes) {
    if (bucket->vcodes.size() + 1 == bucket->codes.size()) {
      HAMMING_RETURN_NOT_OK(bucket->vcodes.Append(code));
    } else {
      bucket->codes.TransposeInto(&bucket->vcodes);
    }
  }
  return Status::OK();
}

std::pair<std::size_t, std::size_t> MultiHashTableIndex::BlockRange(
    std::size_t blk) const {
  std::size_t base = code_bits_ / num_blocks_;
  std::size_t extra = code_bits_ % num_blocks_;
  std::size_t begin = blk * base + std::min(blk, extra);
  std::size_t len = base + (blk < extra ? 1 : 0);
  return {begin, begin + len};
}

uint64_t MultiHashTableIndex::KeyOf(const std::vector<uint8_t>& combo,
                                    const BinaryCode& code) const {
  uint64_t key = 0;
  for (uint8_t blk : combo) {
    auto [b, e] = BlockRange(blk);
    key = (key << (e - b)) | code.SubstringAsUint64(b, e - b);
  }
  // Combination identity is implicit in the table index; no mixing needed.
  return key;
}

Status MultiHashTableIndex::EnsureLayout(const BinaryCode& code) {
  if (tables_.empty()) {
    code_bits_ = code.size();
    // Largest block count b with C(b, h_max) <= requested tables; all
    // C(b, h_max) drop-combinations are materialized so the guarantee
    // holds. At least b = h_max + 1 blocks (single all-kept-block... the
    // minimum layout keeps k = 1 block per table).
    std::size_t b = h_max_ + 1;
    while (Choose(b + 1, h_max_) <= requested_tables_ &&
           b + 1 <= code_bits_) {
      ++b;
    }
    if (b > code_bits_) {
      return Status::InvalidArgument("code shorter than block count");
    }
    num_blocks_ = b;
    std::size_t keep = b - h_max_;
    // Key width check: keep blocks of ceil(L/b) bits must fit in 64.
    std::size_t max_block = (code_bits_ + b - 1) / b;
    if (keep * max_block > 64) {
      return Status::InvalidArgument(
          "MH table keys are limited to 64 bits; increase tables or h_max");
    }
    // Dropping h_max blocks == keeping (b - h_max); enumerate kept sets.
    combos_ = Combinations(b, keep);
    tables_.assign(combos_.size(), {});
  }
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  return Status::OK();
}

Status MultiHashTableIndex::Build(const std::vector<BinaryCode>& codes) {
  tables_.clear();
  combos_.clear();
  stored_.clear();
  num_blocks_ = 0;
  code_bits_ = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    HAMMING_RETURN_NOT_OK(Insert(static_cast<TupleId>(i), codes[i]));
  }
  return Status::OK();
}

Status MultiHashTableIndex::Insert(TupleId id, const BinaryCode& code) {
  HAMMING_RETURN_NOT_OK(EnsureLayout(code));
  for (std::size_t t = 0; t < combos_.size(); ++t) {
    Bucket& bucket = tables_[t][KeyOf(combos_[t], code)];
    HAMMING_RETURN_NOT_OK(AppendToBucket(&bucket, id, code));
  }
  stored_[id] = code;
  return Status::OK();
}

Status MultiHashTableIndex::Delete(TupleId id, const BinaryCode& code) {
  auto it = stored_.find(id);
  if (it == stored_.end() || it->second != code) {
    return Status::KeyError("tuple not found in MH index");
  }
  for (std::size_t t = 0; t < combos_.size(); ++t) {
    auto bucket_it = tables_[t].find(KeyOf(combos_[t], code));
    if (bucket_it == tables_[t].end()) continue;
    Bucket& bucket = bucket_it->second;
    for (std::size_t i = bucket.ids.size(); i-- > 0;) {
      if (bucket.ids[i] != id) continue;
      bucket.codes.SwapRemove(i);
      if (!bucket.vcodes.empty()) bucket.vcodes.SwapRemove(i);
      bucket.ids[i] = bucket.ids.back();
      bucket.ids.pop_back();
    }
    if (bucket.ids.empty()) tables_[t].erase(bucket_it);
  }
  stored_.erase(it);
  return Status::OK();
}

Status MultiHashTableIndex::SearchBatch(
    std::span<const QueryRequest> requests,
    std::span<QueryResponse> responses) const {
  return SearchEach(requests, responses,
                    [this](const QueryRequest& req, QueryResponse* resp) {
                      return SearchOne(req.code, req.h, resp);
                    });
}

Status MultiHashTableIndex::SearchOne(const BinaryCode& query, std::size_t h,
                                      QueryResponse* resp) const {
  if (stored_.empty()) return Status::OK();
  if (query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  obs::QueryStats& stats = resp->stats;
  std::vector<std::pair<TupleId, uint32_t>> out;
  // A tuple can match in several tables; verifying twice is cheaper than
  // a per-candidate visited set, so duplicates are dropped at the end.
  std::vector<uint32_t> slots;
  for (std::size_t t = 0; t < combos_.size(); ++t) {
    ++stats.signatures_enumerated;
    auto bucket_it = tables_[t].find(KeyOf(combos_[t], query));
    if (bucket_it == tables_[t].end()) continue;
    const Bucket& bucket = bucket_it->second;
    slots.clear();  // the batch kernels append
    // Hand the mirror to the dual dispatcher only when it tracks the
    // bucket exactly (it lags by design until the bucket crosses the
    // vertical profitability floor).
    const kernels::VerticalCodeStore* mirror =
        bucket.vcodes.size() == bucket.codes.size() ? &bucket.vcodes
                                                    : nullptr;
    kernels::VerticalScanStats vstats;
    kernels::BatchWithinDistanceDual(query, bucket.codes, mirror, h, &slots,
                                     &vstats);
    ++stats.kernel_batch_calls;
    stats.candidates_generated += bucket.ids.size();
    stats.exact_distance_computations += bucket.ids.size();
    stats.planes_scanned += vstats.planes_scanned;
    stats.blocks_pruned += vstats.blocks_pruned;
    // The scan reports slots only; each survivor's distance is one
    // popcount over the bucket's horizontal codes.
    for (uint32_t slot : slots) {
      out.emplace_back(bucket.ids[slot], bucket.codes.Distance(slot, query));
    }
  }
  SetUniqueMatches(&out, resp);
  return Status::OK();
}

void MultiHashTableIndex::Serialize(BufferWriter* w) const {
  w->PutVarint64(requested_tables_);
  w->PutVarint64(h_max_);
  w->PutVarint64(code_bits_);
  w->PutVarint64(tables_.size());
  for (const auto& table : tables_) {
    w->PutVarint64(table.size());
    for (const auto& [key, bucket] : table) {
      w->PutVarint64(key);
      w->PutVarint64(bucket.ids.size());
      for (std::size_t i = 0; i < bucket.ids.size(); ++i) {
        w->PutVarint64(bucket.ids[i]);
        bucket.codes.Get(i).Serialize(w);
      }
    }
  }
  w->PutVarint64(stored_.size());
  for (const auto& [id, code] : stored_) {
    w->PutVarint64(id);
    code.Serialize(w);
  }
}

Result<MultiHashTableIndex> MultiHashTableIndex::Deserialize(
    BufferReader* r) {
  uint64_t requested, h_max, code_bits, table_count;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&requested));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&h_max));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&code_bits));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&table_count));
  MultiHashTableIndex index(static_cast<std::size_t>(requested),
                            static_cast<std::size_t>(h_max));
  bool layout_ready = false;
  for (uint64_t t = 0; t < table_count; ++t) {
    uint64_t entries;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&entries));
    for (uint64_t e = 0; e < entries; ++e) {
      uint64_t key, bucket_size;
      HAMMING_RETURN_NOT_OK(r->GetVarint64(&key));
      HAMMING_RETURN_NOT_OK(r->GetVarint64(&bucket_size));
      for (uint64_t i = 0; i < bucket_size; ++i) {
        uint64_t id;
        BinaryCode code;
        HAMMING_RETURN_NOT_OK(r->GetVarint64(&id));
        HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &code));
        if (!layout_ready) {
          HAMMING_RETURN_NOT_OK(index.EnsureLayout(code));
          layout_ready = true;
        }
        Bucket& bucket = index.tables_[t][key];
        HAMMING_RETURN_NOT_OK(
            AppendToBucket(&bucket, static_cast<TupleId>(id), code));
      }
    }
  }
  uint64_t stored_count;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&stored_count));
  for (uint64_t i = 0; i < stored_count; ++i) {
    uint64_t id;
    BinaryCode code;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&id));
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &code));
    index.stored_[static_cast<TupleId>(id)] = code;
  }
  return index;
}

MemoryBreakdown MultiHashTableIndex::Memory() const {
  MemoryBreakdown mb;
  // Manku's scheme physically duplicates the fingerprints per table.
  std::size_t per_code = code_bits_ ? (code_bits_ + 7) / 8 : 0;
  for (const auto& table : tables_) {
    mb.internal_bytes += table.size() * (sizeof(uint64_t) + sizeof(void*));
    for (const auto& [key, bucket] : table) {
      (void)key;
      mb.internal_bytes += bucket.ids.size() * (sizeof(TupleId) + per_code);
      mb.internal_bytes += bucket.vcodes.PackedBytes();
    }
  }
  for (const auto& [id, code] : stored_) {
    (void)id;
    mb.leaf_bytes += sizeof(TupleId) + code.PackedBytes();
  }
  return mb;
}

}  // namespace hamming
