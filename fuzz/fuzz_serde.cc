// Fuzz harness for the shuffle serialization layer (common/serde.h).
//
// Four phases per input:
//  1. Decode: the input bytes are treated as a hostile buffer and read
//     through every BufferReader getter in a rotating order. Every
//     getter must either succeed or return a Status — out-of-bounds
//     reads, varint overflow (> 10 bytes / bit 63) and overlong
//     encodings are the interesting paths.
//  2. Round-trip: the input also picks a sequence of typed values that
//     are written with BufferWriter and read back; any mismatch traps.
//  3. Join block: the input is decoded as a MapReduce join block
//     (mrjoin/common.h). A header whose id counts exceed the input must
//     be rejected before anything is reserved; a block that decodes must
//     re-encode to exactly the input bytes (varints are canonical).
//  4. Vector tuple: the input is decoded as a MapReduce vector record.
//     A length exceeding the input must be rejected before anything is
//     sized; a tuple that decodes must re-encode to exactly the input.
#include <cstring>
#include <string>
#include <vector>

#include "common/serde.h"
#include "fuzz_targets.h"
#include "mrjoin/common.h"

namespace hamming_fuzz {
namespace {

using hamming::BufferReader;
using hamming::BufferWriter;
using hamming::Status;

void DecodePhase(const uint8_t* data, std::size_t size) {
  if (size == 0) return;
  BufferReader reader(data + 1, size - 1);
  unsigned op = data[0];
  for (int iter = 0; iter < 4096 && !reader.AtEnd(); ++iter) {
    const std::size_t before = reader.remaining();
    Status s;
    switch (op % 8) {
      case 0: {
        uint64_t v;
        s = reader.GetVarint64(&v);
        break;
      }
      case 1: {
        int64_t v;
        s = reader.GetVarint64Signed(&v);
        break;
      }
      case 2: {
        uint32_t v;
        s = reader.GetFixed32(&v);
        break;
      }
      case 3: {
        uint64_t v;
        s = reader.GetFixed64(&v);
        break;
      }
      case 4: {
        double v;
        s = reader.GetDouble(&v);
        break;
      }
      case 5: {
        std::string v;
        s = reader.GetString(&v);
        break;
      }
      case 6: {
        std::vector<uint8_t> v;
        s = reader.GetBytes(&v);
        break;
      }
      default: {
        uint8_t buf[7];
        s = reader.GetRaw(buf, 1 + op % 7);
        break;
      }
    }
    if (!s.ok()) break;
    // Every successful getter consumes at least one byte; anything else
    // would let a malformed stream spin a reader forever.
    HAMMING_FUZZ_CHECK(reader.remaining() < before);
    op = op * 1664525u + 1013904223u;  // LCG walk over the op space
  }
}

void RoundTripPhase(const uint8_t* data, std::size_t size) {
  // Consume (op, value) pairs: 1 tag byte + 8 little-endian value bytes.
  BufferWriter writer;
  std::vector<std::pair<unsigned, uint64_t>> script;
  for (std::size_t i = 0; i + 9 <= size && script.size() < 512; i += 9) {
    uint64_t v = 0;
    std::memcpy(&v, data + i + 1, 8);
    const unsigned tag = data[i] % 6;
    script.emplace_back(tag, v);
    switch (tag) {
      case 0: writer.PutVarint64(v); break;
      case 1: writer.PutVarint64Signed(static_cast<int64_t>(v)); break;
      case 2: writer.PutFixed32(static_cast<uint32_t>(v)); break;
      case 3: writer.PutFixed64(v); break;
      case 4: {
        std::string s(v % 64, static_cast<char>('a' + v % 26));
        writer.PutString(s);
        break;
      }
      default: {
        std::vector<uint8_t> bytes(v % 64, static_cast<uint8_t>(v));
        writer.PutBytes(bytes.data(), bytes.size());
        break;
      }
    }
  }
  BufferReader reader(writer.buffer());
  for (const auto& [tag, v] : script) {
    switch (tag) {
      case 0: {
        uint64_t got;
        HAMMING_FUZZ_CHECK(reader.GetVarint64(&got).ok());
        HAMMING_FUZZ_CHECK(got == v);
        break;
      }
      case 1: {
        int64_t got;
        HAMMING_FUZZ_CHECK(reader.GetVarint64Signed(&got).ok());
        HAMMING_FUZZ_CHECK(got == static_cast<int64_t>(v));
        break;
      }
      case 2: {
        uint32_t got;
        HAMMING_FUZZ_CHECK(reader.GetFixed32(&got).ok());
        HAMMING_FUZZ_CHECK(got == static_cast<uint32_t>(v));
        break;
      }
      case 3: {
        uint64_t got;
        HAMMING_FUZZ_CHECK(reader.GetFixed64(&got).ok());
        HAMMING_FUZZ_CHECK(got == v);
        break;
      }
      case 4: {
        std::string got;
        HAMMING_FUZZ_CHECK(reader.GetString(&got).ok());
        HAMMING_FUZZ_CHECK(got ==
                           std::string(v % 64, static_cast<char>('a' + v % 26)));
        break;
      }
      default: {
        std::vector<uint8_t> got;
        HAMMING_FUZZ_CHECK(reader.GetBytes(&got).ok());
        HAMMING_FUZZ_CHECK(
            got == std::vector<uint8_t>(v % 64, static_cast<uint8_t>(v)));
        break;
      }
    }
  }
  HAMMING_FUZZ_CHECK(reader.AtEnd());
}

void JoinBlockPhase(const uint8_t* data, std::size_t size) {
  const std::vector<uint8_t> bytes(data, data + size);
  hamming::mrjoin::JoinBlock block;
  if (!hamming::mrjoin::DecodeJoinBlock(bytes, &block).ok()) return;
  // Every id costs at least one byte, so a decoded block can never hold
  // more ids than the input had bytes.
  HAMMING_FUZZ_CHECK(block.r_ids.size() + block.s_ids.size() <= size);
  HAMMING_FUZZ_CHECK(
      hamming::mrjoin::EncodeJoinBlock(block.r_ids, block.s_ids) == bytes);
}

void VectorTuplePhase(const uint8_t* data, std::size_t size) {
  const std::vector<uint8_t> bytes(data, data + size);
  auto tuple = hamming::mrjoin::DecodeVectorTuple(bytes);
  if (!tuple.ok()) return;
  // Every double costs eight bytes, so a decoded vector can never be
  // longer than the input allows.
  HAMMING_FUZZ_CHECK(tuple->vec.size() * sizeof(double) <= size);
  HAMMING_FUZZ_CHECK(hamming::mrjoin::EncodeVectorTuple(*tuple) == bytes);
}

}  // namespace

void RunSerdeFuzzInput(const uint8_t* data, std::size_t size) {
  DecodePhase(data, size);
  RoundTripPhase(data, size);
  JoinBlockPhase(data, size);
  VectorTuplePhase(data, size);
}

}  // namespace hamming_fuzz

#if !defined(HAMMING_FUZZ_NO_ENTRY)
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  hamming_fuzz::RunSerdeFuzzInput(data, size);
  return 0;
}
#endif
