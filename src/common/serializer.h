// Little-endian binary writer/reader used for all wire formats.
//
// Decoding is defensive: a Reader never throws and never reads past the end of its input;
// callers check ok() once after decoding a whole message. This matches the threat model —
// Byzantine nodes may send arbitrary byte strings.
#ifndef SRC_COMMON_SERIALIZER_H_
#define SRC_COMMON_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace bft {

class Writer {
 public:
  Writer() = default;

  // Size-hint reservation: encoders that know (or can bound) their output size skip the
  // doubling-growth reallocations on the hot path.
  explicit Writer(size_t size_hint) { buf_.reserve(size_hint); }

  void Reserve(size_t size_hint) { buf_.reserve(buf_.size() + size_hint); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    for (int i = 0; i < 2; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  // Raw bytes without a length prefix (fixed-size fields such as digests and MAC tags).
  void Raw(ByteView b) { Append(buf_, b); }

  // Length-prefixed variable-size field.
  void Var(ByteView b) {
    U32(static_cast<uint32_t>(b.size()));
    Raw(b);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  // Patches a previously written u32 at `offset` (used for total-size headers).
  void PatchU32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView b) : data_(b) {}

  uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint16_t U16() { return static_cast<uint16_t>(ReadLe(2)); }
  uint32_t U32() { return static_cast<uint32_t>(ReadLe(4)); }
  uint64_t U64() { return ReadLe(8); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }

  Bytes Raw(size_t n) {
    if (!Need(n)) {
      return {};
    }
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  Bytes Var() {
    uint32_t n = U32();
    if (!Need(n)) {
      ok_ = false;
      return {};
    }
    return Raw(n);
  }

  // Element count of a length-prefixed sequence. Every element takes at least one byte, so a
  // count above the bytes left is malformed: rejecting it here keeps a tiny message from
  // making its decoder size a huge container.
  uint32_t Count() {
    uint32_t n = U32();
    if (n > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  std::string Str() {
    Bytes b = Var();
    return std::string(b.begin(), b.end());
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint64_t ReadLe(int n) {
    if (!Need(static_cast<size_t>(n))) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  ByteView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace bft

#endif  // SRC_COMMON_SERIALIZER_H_
