#include "src/core/messages.h"

#include <array>

#include "src/crypto/sha256.h"

namespace bft {

void WriteDigest(Writer& w, const Digest& d) { w.Raw(d.View()); }

namespace {
// H(U32 len | ndet | d_1 | ... | d_k), the request digests in execution order: the same
// preimage as a Writer encoding, streamed.
Digest BatchDigestOf(const Bytes& ndet, const std::vector<RequestMsg>& requests,
                     const std::vector<Digest>& separate_digests) {
  Sha256 h;
  h.Update(WireBytes(ndet));
  for (const RequestMsg& req : requests) {
    h.Update(req.RequestDigest().View());
  }
  for (const Digest& d : separate_digests) {
    h.Update(d.View());
  }
  Sha256::DigestBytes full = h.Finish();
  Digest out;
  std::copy(full.begin(), full.begin() + Digest::kSize, out.bytes.begin());
  return out;
}
}  // namespace

// --- Digests and hand-written MAC'd content (see the header comment) ----------------------------

Digest RequestMsg::RequestDigest() const {
  // H(U32 client | U64 timestamp | U32 len | op): the same preimage as a Writer encoding,
  // streamed so the op is hashed in place rather than copied first.
  InlineBytes header = WireBytes(client, timestamp, static_cast<uint32_t>(op.size()));
  return ComputeDigestConcat({header, op});
}

InlineBytes RequestMsg::AuthContent(const Digest& digest) const {
  return WireBytes(client, timestamp, read_only, designated_replier, digest);
}

InlineBytes ReplyMsg::AuthContent() const {
  return WireBytes(view, timestamp, client, replica, tentative, result_digest);
}

Digest PrePrepareMsg::BatchDigest() const {
  return BatchDigestOf(ndet, inline_requests, separate_digests);
}

InlineBytes PrePrepareMsg::AuthContent(const Digest& batch_digest) const {
  return WireBytes(view, seq, batch_digest);
}

Digest BatchPayload::BatchDigest() const { return BatchDigestOf(ndet, requests, {}); }

InlineBytes NewViewMsg::AuthContent() const {
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

Bytes EncodeMessage(const Message& m) {
  return std::visit([](const auto& msg) { return EncodeTyped(msg); }, m);
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

std::optional<Message> Decode(Reader& r) {
  uint8_t tag = r.U8();
  if (!r.ok() || tag == 0 || tag > kDecoders.size()) {
    return std::nullopt;
  }
  return kDecoders[tag - 1](r);
}
}  // namespace

std::optional<Message> DecodeMessage(const MsgBuffer& wire) {
  Reader r(wire);
  return Decode(r);
}

std::optional<Message> DecodeMessage(ByteView wire) {
  Reader r(wire);
  return Decode(r);
}

std::optional<Message> DecodeMessage(const Bytes& wire) { return DecodeMessage(ByteView(wire)); }

}  // namespace bft
