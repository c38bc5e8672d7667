#include "src/core/messages.h"

#include <array>

namespace bft {

void WriteDigest(Writer& w, const Digest& d) { w.Raw(d.View()); }

void WireReader::operator()(Digest& d) const {
  Bytes raw = r.Raw(Digest::kSize);
  if (r.ok()) {
    std::copy(raw.begin(), raw.end(), d.bytes.begin());
  }
}

// --- Digests and hand-written MAC'd content (see the header comment) ----------------------------

Digest RequestMsg::RequestDigest() const {
  // H(U32 client | U64 timestamp | U32 len | op): the same preimage as a Writer encoding,
  // streamed so the op is hashed in place rather than copied first.
  Writer header;
  header.U32(client);
  header.U64(timestamp);
  header.U32(static_cast<uint32_t>(op.size()));
  return ComputeDigestConcat({header.data(), op});
}

Bytes RequestMsg::AuthContent(const Digest& digest) const {
  return WireBytes(client, timestamp, read_only, designated_replier, digest);
}

Bytes ReplyMsg::AuthContent() const {
  return WireBytes(view, timestamp, client, replica, tentative, result_digest);
}

Digest PrePrepareMsg::BatchDigest() const {
  Writer w;
  w.Var(ndet);
  for (const Digest& d : OrderedRequestDigests()) {
    WriteDigest(w, d);
  }
  return ComputeDigest(w.data());
}

std::vector<Digest> PrePrepareMsg::OrderedRequestDigests() const {
  std::vector<Digest> out;
  out.reserve(inline_requests.size() + separate_digests.size());
  for (const RequestMsg& req : inline_requests) {
    out.push_back(req.RequestDigest());
  }
  for (const Digest& d : separate_digests) {
    out.push_back(d);
  }
  return out;
}

Bytes PrePrepareMsg::AuthContent() const { return WireBytes(view, seq, BatchDigest()); }

Digest BatchPayload::BatchDigest() const {
  Writer w;
  w.Var(ndet);
  for (const RequestMsg& req : requests) {
    WriteDigest(w, req.RequestDigest());
  }
  return ComputeDigest(w.data());
}

Bytes NewViewMsg::AuthContent() const {
  return WireBytes(view, vc_set, min_s, chkpt_digest, chosen);
}

// --- Top-level ----------------------------------------------------------------------------------

MsgType TypeOf(const Message& m) {
  return static_cast<MsgType>(m.index() + 1);
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kRequest: return "request";
    case MsgType::kReply: return "reply";
    case MsgType::kPrePrepare: return "pre_prepare";
    case MsgType::kPrepare: return "prepare";
    case MsgType::kCommit: return "commit";
    case MsgType::kCheckpoint: return "checkpoint";
    case MsgType::kViewChange: return "view_change";
    case MsgType::kViewChangeAck: return "view_change_ack";
    case MsgType::kNewView: return "new_view";
    case MsgType::kStatus: return "status";
    case MsgType::kFetch: return "fetch";
    case MsgType::kMetaData: return "meta_data";
    case MsgType::kData: return "data";
    case MsgType::kBatchFetch: return "batch_fetch";
    case MsgType::kBatchReply: return "batch_reply";
    case MsgType::kNewKey: return "new_key";
    case MsgType::kQueryStable: return "query_stable";
    case MsgType::kReplyStable: return "reply_stable";
  }
  return "unknown";
}

void EncodeMessageTo(Writer& w, const Message& m) {
  w.U8(static_cast<uint8_t>(TypeOf(m)));
  std::visit(WireWriter{w}, m);
}

Bytes EncodeMessage(const Message& m) {
  // Covers a batched pre-prepare with a few inline requests in one allocation; larger
  // messages (new-view, state-transfer data) fall back to doubling growth.
  Writer w(512);
  EncodeMessageTo(w, m);
  return w.Take();
}

namespace {
// Decodes the body of Message alternative I; the whole rest of the input must be that body.
template <size_t I>
std::optional<Message> DecodeAs(Reader& r) {
  std::variant_alternative_t<I, Message> m;
  WireReader{r}(m);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return Message(std::in_place_index<I>, std::move(m));
}

// Tag t decodes as alternative t - 1.
constexpr auto kDecoders = []<size_t... I>(std::index_sequence<I...>) {
  return std::array{&DecodeAs<I>...};
}(std::make_index_sequence<kNumMsgTypes>());
}  // namespace

std::optional<Message> DecodeMessage(ByteView wire) {
  Reader r(wire);
  uint8_t tag = r.U8();
  if (!r.ok() || tag == 0 || tag > kDecoders.size()) {
    return std::nullopt;
  }
  return kDecoders[tag - 1](r);
}

}  // namespace bft
