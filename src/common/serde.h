// Binary serialization used by the MapReduce runtime.
//
// Every record that crosses the map->reduce shuffle boundary is encoded
// through this layer, so the byte counts the runtime reports as "shuffle
// cost" reflect real serialized sizes (varint-compressed integers, length-
// prefixed strings), matching the role Hadoop's Writable layer plays in the
// paper's cluster.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace hamming {

/// \brief Appends primitive values to a growable byte buffer.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// \brief Appends a little-endian fixed-width integer.
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  /// \brief Appends a LEB128 varint.
  void PutVarint64(uint64_t v);
  /// \brief Varint-encodes a signed value with zigzag.
  void PutVarint64Signed(int64_t v);
  /// \brief Appends an IEEE-754 double (8 bytes).
  void PutDouble(double v);
  /// \brief Appends length-prefixed bytes.
  void PutBytes(const void* data, std::size_t len);
  /// \brief Appends a length-prefixed string.
  void PutString(const std::string& s);
  /// \brief Appends raw bytes with no length prefix.
  void PutRaw(const void* data, std::size_t len);

  /// \brief Reserves room for `n` more bytes (an exact size avoids regrowth).
  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

/// \brief Reads primitive values back out of a byte buffer.
///
/// All getters return a Status so malformed buffers surface as IOError
/// instead of undefined behaviour.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out);
  Status GetVarint64Signed(int64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetBytes(std::vector<uint8_t>* out);
  Status GetRaw(void* out, std::size_t len);

  std::size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace hamming
