#include "kernels/code_store.h"

#include <algorithm>
#include <bit>

#include "kernels/vertical_code_store.h"

namespace hamming::kernels {

void CodeStore::TransposeInto(VerticalCodeStore* out) const {
  out->AssignTransposed(*this);
}

void CodeStore::Reset(std::size_t bits) {
  bits_ = bits;
  nwords_ = (bits + 63) >> 6;
  size_ = 0;
  stride_ = 0;
  data_.clear();
}

Result<CodeStore> CodeStore::FromCodes(const std::vector<BinaryCode>& codes) {
  CodeStore store;
  if (codes.empty()) return store;
  store.Reset(codes[0].size());
  store.Grow((codes.size() + kLaneAlign - 1) / kLaneAlign * kLaneAlign);
  for (const auto& c : codes) {
    HAMMING_RETURN_NOT_OK(store.Append(c));
  }
  return store;
}

void CodeStore::Grow(std::size_t new_stride) {
  if (new_stride <= stride_) return;
  std::vector<uint64_t> grown(nwords_ * new_stride, 0);
  for (std::size_t w = 0; w < nwords_; ++w) {
    std::copy_n(data_.data() + w * stride_, size_,
                grown.data() + w * new_stride);
  }
  data_ = std::move(grown);
  stride_ = new_stride;
}

Status CodeStore::Append(const BinaryCode& code) {
  if (size_ == 0 && bits_ == 0) Reset(code.size());
  if (code.size() != bits_) {
    return Status::InvalidArgument("CodeStore: code length mismatch");
  }
  if (size_ == stride_) {
    Grow(std::max<std::size_t>(kLaneAlign, stride_ * 2));
  }
  const auto& words = code.words();
  for (std::size_t w = 0; w < nwords_; ++w) {
    data_[w * stride_ + size_] = words[w];
  }
  ++size_;
  return Status::OK();
}

void CodeStore::SwapRemove(std::size_t i) {
  const std::size_t last = size_ - 1;
  for (std::size_t w = 0; w < nwords_; ++w) {
    uint64_t* lane = data_.data() + w * stride_;
    lane[i] = lane[last];
    lane[last] = 0;  // keep pad slots zero for the SIMD overread
  }
  --size_;
}

BinaryCode CodeStore::Get(std::size_t i) const {
  BinaryCode code(bits_);
  auto& words = code.mutable_words();
  for (std::size_t w = 0; w < nwords_; ++w) {
    words[w] = data_[w * stride_ + i];
  }
  return code;
}

bool CodeStore::Matches(std::size_t i, const BinaryCode& code) const {
  if (code.size() != bits_) return false;
  const auto& words = code.words();
  for (std::size_t w = 0; w < nwords_; ++w) {
    if (data_[w * stride_ + i] != words[w]) return false;
  }
  return true;
}

uint32_t CodeStore::Distance(std::size_t i, const BinaryCode& code) const {
  const auto& words = code.words();
  uint32_t d = 0;
  for (std::size_t w = 0; w < nwords_; ++w) {
    d += static_cast<uint32_t>(
        std::popcount(data_[w * stride_ + i] ^ words[w]));
  }
  return d;
}

}  // namespace hamming::kernels
