// Refcounted immutable message buffer: encode once, share everywhere.
//
// A protocol multicast used to deep-copy its encoded bytes once per destination (and once
// more per queue hop). MsgBuffer is a flat byte buffer behind a shared_ptr, so the same
// serialization is handed to every destination, every in-flight simulator event, and every
// runtime mailbox by bumping a refcount. Authenticators make this safe: a multicast already
// carries one MAC slot per receiver in a single trailer, so the bytes on the wire are
// identical for all n-1 destinations.
//
// A MsgBuffer may also be a *slice* of a larger shared buffer: the formation layer packs
// many protocol messages into one datagram, and the receive side hands each frame out as a
// slice that keeps the whole datagram alive — no per-frame copy, one refcount per frame.
//
// Implicitly constructible from Bytes so producers keep writing
// `Send(dst, EncodeMessage(m))`; the conversion is the single point where ownership of the
// encoding transfers into shared storage.
//
// A request's op is a MsgBuffer too: decoded from a received datagram, it is a slice of that
// datagram, and every copy of the request (the replica's request table, a batch payload, a
// pre-prepare, the log) shares the one body. A MsgBuffer is a contiguous range, so it reads
// as a ByteView wherever one is expected.
#ifndef SRC_COMMON_MSG_BUFFER_H_
#define SRC_COMMON_MSG_BUFFER_H_

#include <cassert>
#include <memory>
#include <utility>

#include "src/common/bytes.h"

namespace bft {

class MsgBuffer {
 public:
  MsgBuffer() = default;

  // Implicit by design: adopting an encoded Bytes is the common producer idiom.
  MsgBuffer(Bytes bytes) : data_(std::make_shared<const Bytes>(std::move(bytes))) {
    size_ = data_->size();
  }

  // Copies `view` into exactly-sized shared storage (receive paths with reusable buffers).
  explicit MsgBuffer(ByteView view)
      : data_(std::make_shared<const Bytes>(view.begin(), view.end())) {
    size_ = data_->size();
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const uint8_t* data() const { return data_ == nullptr ? nullptr : data_->data() + offset_; }

  ByteView view() const {
    return data_ == nullptr ? ByteView() : ByteView(data_->data() + offset_, size_);
  }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }

  // Content equality, whatever storage each side shares.
  friend bool operator==(const MsgBuffer& a, const MsgBuffer& b) {
    return Equal(a.view(), b.view());
  }

  // A sub-range sharing ownership of the underlying storage (frame extraction on the
  // formation receive path). The caller guarantees the range lies within this buffer.
  MsgBuffer Slice(size_t offset, size_t length) const {
    assert(offset + length <= size_);
    MsgBuffer out;
    out.data_ = data_;
    out.offset_ = offset_ + offset;
    out.size_ = length;
    return out;
  }

  // The whole backing buffer, for consumers predating ByteView. Only meaningful on unsliced
  // buffers (the simulator's network filter sees whole messages); slices are formed frames
  // on the runtime receive path and decoded request ops.
  const Bytes& bytes() const {
    static const Bytes kEmpty;
    assert(offset_ == 0 && (data_ == nullptr || size_ == data_->size()));
    return data_ == nullptr ? kEmpty : *data_;
  }

  // Materializes an owned copy, for consumers that mutate or outlive all refcounts.
  Bytes Copy() const { return Bytes(view().begin(), view().end()); }

 private:
  std::shared_ptr<const Bytes> data_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

}  // namespace bft

#endif  // SRC_COMMON_MSG_BUFFER_H_
