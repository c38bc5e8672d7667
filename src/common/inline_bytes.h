// Bytes with inline storage, for the small buffers every normal-case message carries.
//
// An authentication trailer (one 8-byte MAC per replica, or a single MAC) and the MAC'd
// content of a message header are a few dozen bytes each, made and dropped once per message.
// As a std::vector each would cost a heap allocation and a free. InlineBytes keeps up to
// kInline bytes inside the object and spills to one heap block only beyond that: a
// signature, or the content of a view-change or new-view. Copies and moves copy only the
// bytes in use.
//
// It converts implicitly to ByteView (it is a contiguous range) and to Bytes, so code that
// reads a trailer or keeps an owned copy of one keeps compiling.
#ifndef SRC_COMMON_INLINE_BYTES_H_
#define SRC_COMMON_INLINE_BYTES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "src/common/bytes.h"

namespace bft {

class InlineBytes {
 public:
  // An authenticator for n <= 14 replicas, one MAC, and every normal-case header.
  static constexpr size_t kInline = 112;

  InlineBytes() = default;
  // Implicit by design: a trailer is routinely assigned from a Bytes or a view.
  InlineBytes(ByteView b) { Assign(b.data(), b.size()); }
  InlineBytes(const Bytes& b) { Assign(b.data(), b.size()); }

  InlineBytes(const InlineBytes& o) { Assign(o.data(), o.size()); }
  InlineBytes(InlineBytes&& o) noexcept { MoveFrom(o); }
  InlineBytes& operator=(const InlineBytes& o) {
    if (this != &o) {
      Assign(o.data(), o.size());
    }
    return *this;
  }
  InlineBytes& operator=(InlineBytes&& o) noexcept {
    if (this != &o) {
      MoveFrom(o);
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t* data() { return heap_ != nullptr ? heap_.get() : inline_; }
  const uint8_t* data() const { return heap_ != nullptr ? heap_.get() : inline_; }
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }

  // Grows or shrinks to `n` bytes; bytes past the old size read as zero.
  void resize(size_t n) {
    Reserve(n);
    if (n > size_) {
      std::memset(data() + size_, 0, n - size_);
    }
    size_ = static_cast<uint32_t>(n);
  }
  void clear() { size_ = 0; }

  void Append(const uint8_t* p, size_t n) {
    if (size_ + n > Capacity()) {
      Reserve(std::max(size_ + n, 2 * Capacity()));
    }
    if (n != 0) {
      std::memcpy(data() + size_, p, n);
    }
    size_ += static_cast<uint32_t>(n);
  }

  operator Bytes() const { return Bytes(begin(), end()); }

  friend bool operator==(const InlineBytes& a, const InlineBytes& b) {
    return Equal(a, b);
  }

 private:
  size_t Capacity() const { return heap_ != nullptr ? heap_capacity_ : kInline; }

  // Makes room for `n` bytes, keeping the ones in use.
  void Reserve(size_t n) {
    if (n <= Capacity()) {
      return;
    }
    std::unique_ptr<uint8_t[]> grown(new uint8_t[n]);
    if (size_ != 0) {
      std::memcpy(grown.get(), data(), size_);
    }
    heap_ = std::move(grown);
    heap_capacity_ = static_cast<uint32_t>(n);
  }

  void Assign(const uint8_t* p, size_t n) {
    size_ = 0;
    Append(p, n);
  }

  void MoveFrom(InlineBytes& o) {
    if (o.heap_ != nullptr) {
      heap_ = std::move(o.heap_);
      heap_capacity_ = o.heap_capacity_;
      size_ = o.size_;
    } else {
      Assign(o.inline_, o.size_);
    }
    o.size_ = 0;
  }

  std::unique_ptr<uint8_t[]> heap_;
  uint32_t heap_capacity_ = 0;
  uint32_t size_ = 0;
  uint8_t inline_[kInline];
};

}  // namespace bft

#endif  // SRC_COMMON_INLINE_BYTES_H_
