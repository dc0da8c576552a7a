#include "code/binary_code.h"

namespace hamming {

BinaryCode::BinaryCode(std::size_t nbits) : nbits_(static_cast<uint32_t>(nbits)) {
  words_.fill(0);
}

Result<BinaryCode> BinaryCode::FromString(std::string_view bits) {
  BinaryCode code;
  std::size_t pos = 0;
  for (char ch : bits) {
    if (ch == ' ' || ch == '\t' || ch == '_') continue;
    if (ch != '0' && ch != '1') {
      return Status::InvalidArgument("invalid character in binary code string");
    }
    if (pos >= kMaxBits) {
      return Status::OutOfRange("binary code longer than kMaxBits");
    }
    if (ch == '1') code.words_[pos >> 6] |= 1ull << (63 - (pos & 63));
    ++pos;
  }
  code.nbits_ = static_cast<uint32_t>(pos);
  return code;
}

Result<BinaryCode> BinaryCode::FromUint64(uint64_t value, std::size_t nbits) {
  if (nbits > 64) {
    return Status::InvalidArgument("FromUint64 supports at most 64 bits");
  }
  BinaryCode code(nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    if ((value >> (nbits - 1 - i)) & 1) code.SetBit(i, true);
  }
  return code;
}

BinaryCode BinaryCode::Substring(std::size_t start, std::size_t len) const {
  BinaryCode out(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (GetBit(start + i)) out.SetBit(i, true);
  }
  return out;
}

uint64_t BinaryCode::SubstringAsUint64(std::size_t start, std::size_t len) const {
  uint64_t v = 0;
  for (std::size_t i = 0; i < len; ++i) {
    v = (v << 1) | static_cast<uint64_t>(GetBit(start + i));
  }
  return v;
}

BinaryCode BinaryCode::operator^(const BinaryCode& other) const {
  BinaryCode out(nbits_);
  for (std::size_t i = 0; i < kWords; ++i) {
    out.words_[i] = words_[i] ^ other.words_[i];
  }
  return out;
}

BinaryCode BinaryCode::operator&(const BinaryCode& other) const {
  BinaryCode out(nbits_);
  for (std::size_t i = 0; i < kWords; ++i) {
    out.words_[i] = words_[i] & other.words_[i];
  }
  return out;
}

BinaryCode BinaryCode::operator|(const BinaryCode& other) const {
  BinaryCode out(nbits_);
  for (std::size_t i = 0; i < kWords; ++i) {
    out.words_[i] = words_[i] | other.words_[i];
  }
  return out;
}

BinaryCode BinaryCode::Not() const {
  BinaryCode out(nbits_);
  for (std::size_t i = 0; i < kWords; ++i) out.words_[i] = ~words_[i];
  out.MaskTail();
  return out;
}

void BinaryCode::MaskTail() {
  // Clear bits at positions >= nbits_. Position p lives in word p/64 at
  // bit 63-(p%64), so word w keeps its top (nbits_-64w) bits.
  for (std::size_t w = 0; w < kWords; ++w) {
    std::size_t first_pos = w * 64;
    if (first_pos >= nbits_) {
      words_[w] = 0;
    } else {
      std::size_t keep = nbits_ - first_pos;
      if (keep < 64) words_[w] &= ~((1ull << (64 - keep)) - 1);
    }
  }
}

std::string BinaryCode::ToString() const {
  std::string out;
  out.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) out.push_back(GetBit(i) ? '1' : '0');
  return out;
}

uint64_t BinaryCode::Hash() const {
  // FNV-1a over the words plus the length.
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (uint64_t w : words_) mix(w);
  mix(nbits_);
  return h;
}

void BinaryCode::Serialize(BufferWriter* w) const {
  w->PutVarint64(nbits_);
  std::size_t nbytes = PackedBytes();
  for (std::size_t b = 0; b < nbytes; ++b) {
    uint8_t byte = static_cast<uint8_t>(
        (words_[b / 8] >> (56 - 8 * (b % 8))) & 0xff);
    w->PutRaw(&byte, 1);
  }
}

Status BinaryCode::Deserialize(BufferReader* r, BinaryCode* out) {
  uint64_t nbits;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&nbits));
  if (nbits > kMaxBits) return Status::IOError("binary code too long");
  BinaryCode code(static_cast<std::size_t>(nbits));
  std::size_t nbytes = code.PackedBytes();
  for (std::size_t b = 0; b < nbytes; ++b) {
    uint8_t byte;
    HAMMING_RETURN_NOT_OK(r->GetRaw(&byte, 1));
    code.words_[b / 8] |= static_cast<uint64_t>(byte) << (56 - 8 * (b % 8));
  }
  // The writer zeroes the bits past nbits; a set one is corruption, and
  // accepting it would make the encoding non-canonical.
  const std::array<uint64_t, kWords> raw = code.words_;
  code.MaskTail();
  if (code.words_ != raw) {
    return Status::IOError("binary code padding bits set");
  }
  *out = code;
  return Status::OK();
}

}  // namespace hamming
