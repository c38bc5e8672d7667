// Little-endian binary writer/reader used for all wire formats.
//
// Decoding is defensive: a Reader never throws and never reads past the end of its input;
// callers check ok() once after decoding a whole message. This matches the threat model —
// Byzantine nodes may send arbitrary byte strings.
#ifndef SRC_COMMON_SERIALIZER_H_
#define SRC_COMMON_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/inline_bytes.h"
#include "src/common/msg_buffer.h"

namespace bft {

// The wire format's little-endian integers and length-prefixed fields, written into any byte
// sink `Derived` that provides Put(const uint8_t*, size_t). Each integer is one Put of its
// encoded bytes.
template <typename Derived>
class WireSink {
 public:
  void U8(uint8_t v) { Put(&v, 1); }
  void U16(uint16_t v) { PutLe<2>(v); }
  void U32(uint32_t v) { PutLe<4>(v); }
  void U64(uint64_t v) { PutLe<8>(v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  // Raw bytes without a length prefix (fixed-size fields such as digests and MAC tags).
  void Raw(ByteView b) { Put(b.data(), b.size()); }

  // Length-prefixed variable-size field.
  void Var(ByteView b) {
    U32(static_cast<uint32_t>(b.size()));
    Raw(b);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Put(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

 private:
  void Put(const uint8_t* p, size_t n) { static_cast<Derived*>(this)->Put(p, n); }

  template <int N>
  void PutLe(uint64_t v) {
    uint8_t le[N];
    for (int i = 0; i < N; ++i) {
      le[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Put(le, N);
  }
};

class Writer : public WireSink<Writer> {
 public:
  Writer() = default;

  // Size-hint reservation: encoders that know (or can bound) their output size skip the
  // doubling-growth reallocations on the hot path.
  explicit Writer(size_t size_hint) { buf_.reserve(size_hint); }

  void Reserve(size_t size_hint) { buf_.reserve(buf_.size() + size_hint); }

  void Put(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }

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

// Writes into inline storage: MAC'd content and other small preimages, with no heap
// allocation up to InlineBytes::kInline bytes.
class InlineWriter : public WireSink<InlineWriter> {
 public:
  void Put(const uint8_t* p, size_t n) { buf_.Append(p, n); }
  InlineBytes Take() { return std::move(buf_); }

 private:
  InlineBytes buf_;
};

// Counts the bytes a write sequence would produce, writing none: the sizing pass of an
// exact-size encode.
class SizeCounter : public WireSink<SizeCounter> {
 public:
  void Put(const uint8_t*, size_t n) { size_ += n; }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class Reader {
 public:
  explicit Reader(ByteView b) : data_(b) {}
  explicit Reader(const Bytes& b) : data_(b) {}
  // Reads a shared buffer, which must outlive the Reader: VarShared() then returns slices of
  // it instead of copies.
  explicit Reader(const MsgBuffer& b) : data_(b.view()), source_(&b) {}

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

  // Copies n raw bytes into `out`; leaves it untouched on a short input.
  void RawInto(uint8_t* out, size_t n) {
    if (!Need(n)) {
      return;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  Bytes Var() {
    uint32_t n = U32();
    if (!Need(n)) {
      return {};
    }
    return Raw(n);
  }

  // A length-prefixed field decoded straight into inline storage.
  void VarInto(InlineBytes& out) {
    out.clear();
    uint32_t n = U32();
    if (!Need(n)) {
      return;
    }
    out.Append(data_.data() + pos_, n);
    pos_ += n;
  }

  // A length-prefixed field as a shared buffer: a slice of the input when it is a MsgBuffer,
  // so the field shares its storage, else a copy.
  MsgBuffer VarShared() {
    uint32_t n = U32();
    if (!Need(n)) {
      return {};
    }
    MsgBuffer out = source_ != nullptr ? source_->Slice(pos_, n)
                                       : MsgBuffer(data_.subspan(pos_, n));
    pos_ += n;
    return out;
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
  const MsgBuffer* source_ = nullptr;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace bft

#endif  // SRC_COMMON_SERIALIZER_H_
