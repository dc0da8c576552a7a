#include "mrjoin/common.h"

#include <bit>
#include <limits>

namespace hamming::mrjoin {

mr::ExecutionOptions PlanJobOptions(const MRJoinOptions& opts,
                                    mr::PartitionFn partition_fn) {
  mr::ExecutionOptions exec = opts.exec;
  exec.num_reducers = opts.num_partitions;
  exec.partition_fn = std::move(partition_fn);
  return exec;
}

mr::PartitionFn PartitionKeyRouter() {
  return [](const std::vector<uint8_t>& key, std::size_t num_reducers) {
    auto part = DecodePartitionKey(key);
    return part.ok() ? static_cast<std::size_t>(*part) % num_reducers : 0u;
  };
}

std::vector<uint8_t> EncodeCodeTuple(const CodeTuple& t) {
  BufferWriter w;
  w.PutVarint64(static_cast<uint64_t>(t.table));
  w.PutVarint64(t.id);
  t.code.Serialize(&w);
  return w.Release();
}

Result<CodeTuple> DecodeCodeTuple(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  CodeTuple t;
  uint64_t table, id;
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&table));
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&id));
  if (table > static_cast<uint64_t>(Table::kS)) {
    return Status::IOError("code record table tag out of range");
  }
  if (id > std::numeric_limits<TupleId>::max()) {
    return Status::IOError("code record tuple id out of range");
  }
  HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(&r, &t.code));
  if (r.remaining() != 0) {
    return Status::IOError("trailing bytes after code record");
  }
  t.table = static_cast<Table>(table);
  t.id = static_cast<TupleId>(id);
  return t;
}

namespace {

// Vector records copy a row's doubles straight into (and out of) the
// record as its fixed64 wire bytes, which are little-endian.
static_assert(std::endian::native == std::endian::little,
              "vector records memcpy doubles as little-endian fixed64");

std::size_t VarintBytes(uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

std::vector<uint8_t> EncodeVectorRecord(Table table, TupleId id,
                                        std::span<const double> vec) {
  BufferWriter w;
  w.Reserve(VarintBytes(static_cast<uint64_t>(table)) + VarintBytes(id) +
            VarintBytes(vec.size()) + vec.size_bytes());
  w.PutVarint64(static_cast<uint64_t>(table));
  w.PutVarint64(id);
  w.PutVarint64(vec.size());
  w.PutRaw(vec.data(), vec.size_bytes());
  return w.Release();
}

}  // namespace

std::vector<uint8_t> EncodeVectorTuple(const VectorTuple& t) {
  return EncodeVectorRecord(t.table, t.id, t.vec);
}

Result<VectorTuple> DecodeVectorTuple(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  VectorTuple t;
  uint64_t table, id, n;
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&table));
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&id));
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&n));
  if (table > static_cast<uint64_t>(Table::kS)) {
    return Status::IOError("vector record table tag out of range");
  }
  if (id > std::numeric_limits<TupleId>::max()) {
    return Status::IOError("vector record tuple id out of range");
  }
  // Checked before sizing anything: a corrupt length must not allocate.
  if (n > r.remaining() / sizeof(double)) {
    return Status::IOError("vector record length exceeds its bytes");
  }
  if (n * sizeof(double) != r.remaining()) {
    return Status::IOError("trailing bytes after vector record");
  }
  t.table = static_cast<Table>(table);
  t.id = static_cast<TupleId>(id);
  t.vec.resize(n);
  HAMMING_RETURN_NOT_OK(r.GetRaw(t.vec.data(), n * sizeof(double)));
  return t;
}

std::vector<uint8_t> EncodeJoinBlock(std::span<const TupleId> r_ids,
                                     std::span<const TupleId> s_ids) {
  BufferWriter w;
  w.PutVarint64(r_ids.size());
  w.PutVarint64(s_ids.size());
  for (TupleId r : r_ids) w.PutVarint64(r);
  for (TupleId s : s_ids) w.PutVarint64(s);
  return w.Release();
}

namespace {

// Reads a join block's id counts. Every id takes at least one varint
// byte, so counts past the bytes left are corrupt; rejecting them here
// keeps a bad header from sizing any allocation.
Status GetJoinBlockHeader(BufferReader* r, uint64_t* num_r, uint64_t* num_s) {
  HAMMING_RETURN_NOT_OK(r->GetVarint64(num_r));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(num_s));
  if (*num_r > r->remaining() || *num_s > r->remaining() - *num_r) {
    return Status::IOError("join block header counts exceed its bytes");
  }
  return Status::OK();
}

Status GetTupleIds(BufferReader* r, uint64_t n, std::vector<TupleId>* ids) {
  ids->clear();
  ids->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&id));
    if (id > std::numeric_limits<TupleId>::max()) {
      return Status::IOError("join block tuple id out of range");
    }
    ids->push_back(static_cast<TupleId>(id));
  }
  return Status::OK();
}

}  // namespace

Status DecodeJoinBlock(const std::vector<uint8_t>& bytes, JoinBlock* block) {
  BufferReader r(bytes);
  uint64_t num_r, num_s;
  HAMMING_RETURN_NOT_OK(GetJoinBlockHeader(&r, &num_r, &num_s));
  HAMMING_RETURN_NOT_OK(GetTupleIds(&r, num_r, &block->r_ids));
  HAMMING_RETURN_NOT_OK(GetTupleIds(&r, num_s, &block->s_ids));
  if (!r.AtEnd()) return Status::IOError("trailing bytes after join block");
  return Status::OK();
}

std::vector<uint8_t> PartitionKey(uint32_t partition) {
  BufferWriter w;
  w.PutFixed32(partition);
  return w.Release();
}

Result<uint32_t> DecodePartitionKey(const std::vector<uint8_t>& key) {
  BufferReader r(key);
  uint32_t p;
  HAMMING_RETURN_NOT_OK(r.GetFixed32(&p));
  return p;
}

std::vector<mr::Record> MatrixToRecords(const FloatMatrix& data,
                                        Table table) {
  std::vector<mr::Record> out;
  out.reserve(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    out.push_back(
        {{}, EncodeVectorRecord(table, static_cast<TupleId>(i), data.Row(i))});
  }
  return out;
}

Result<std::vector<JoinPair>> CollectJoinPairs(
    const std::vector<std::vector<mr::Record>>& outputs) {
  std::size_t total = 0;
  for (const auto& part : outputs) {
    for (const auto& rec : part) {
      BufferReader r(rec.value);
      uint64_t num_r, num_s;
      HAMMING_RETURN_NOT_OK(GetJoinBlockHeader(&r, &num_r, &num_s));
      total += num_r * num_s;
    }
  }
  std::vector<JoinPair> pairs;
  pairs.reserve(total);
  JoinBlock block;
  for (const auto& part : outputs) {
    for (const auto& rec : part) {
      HAMMING_RETURN_NOT_OK(DecodeJoinBlock(rec.value, &block));
      for (TupleId r : block.r_ids) {
        for (TupleId s : block.s_ids) pairs.push_back({r, s});
      }
    }
  }
  return pairs;
}

}  // namespace hamming::mrjoin
