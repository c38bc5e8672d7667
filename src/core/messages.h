// Protocol message types and wire formats (thesis Fig 6-1 and Chapters 2-5).
//
// Every message is a one-byte type tag (MsgType), a body, and an authentication trailer
// `auth`: an authenticator (one MAC per replica), a single MAC, or a signature, depending on
// message type and AuthMode.
//
// One field list per type. Each struct names its body fields once, in wire order and without
// `auth`, in `static auto Fields(auto& m)`. That list drives the encoder (WireWriter), the
// decoder (WireReader) and, for every type whose MAC covers its whole body, `AuthContent()`
// (and ViewChangeMsg::MessageDigest(), which hashes the same bytes). A field's C++ type fixes
// its wire form: uint32_t/NodeId -> 4 bytes, uint64_t -> 8 (little-endian), bool -> 1,
// Bytes and MsgBuffer -> U32 length + bytes, Digest -> 16 raw bytes, std::pair -> both
// members in order, std::vector -> U32 count + elements, a nested struct -> its own fields,
// then its `auth` if it has one.
//
// Five types authenticate less than their body, deliberately, and write AuthContent() by hand:
//  - Request: the header plus the request digest; the op is hashed once, so MAC cost does not
//    grow with its size.
//  - Reply: the header plus the result digest, no result bytes; a digest reply and a full
//    reply authenticate identically (Section 5.1.1).
//  - PrePrepare: view, seq and BatchDigest(); the batch is covered through its digest.
//  - NewView: no payloads; each is checked against the chosen digests.
//  - BatchReply: the replica only; the payload is checked against the digest that was fetched.
// DataMsg has no MAC at all: the fetcher checks each page against a known digest.
//
// The normal case allocates little per message:
//  - Inline trailers. Every `auth`, and every AuthContent(), is an InlineBytes: an
//    authenticator for up to 14 replicas, a MAC and every normal-case header fit inside the
//    object, so making or checking a MAC and decoding a trailer touch no heap.
//  - One exact-size encode. EncodeTyped(m) encodes a message from its own type: a counting
//    pass sizes the output, then one allocation holds it. EncodeMessage(const Message&)
//    visits into it; hot paths call EncodeTyped directly and skip the copy into a variant.
//  - A shared op. RequestMsg::op is a MsgBuffer. DecodeMessage(const MsgBuffer&) slices
//    each op out of the datagram it arrived in, and every later copy of the request shares
//    that one body. DecodeMessage(ByteView) copies instead.
//
// Decoding is defensive: every node decodes a datagram before it checks the MAC, so any sender
// reaches the decoder. DecodeMessage returns nullopt on malformed input or trailing bytes. A
// vector's count may not exceed the bytes left (every element takes at least one), and the
// vector grows only as elements decode, so a tiny datagram cannot force a large allocation.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/inline_bytes.h"
#include "src/common/msg_buffer.h"
#include "src/common/serializer.h"
#include "src/core/clock.h"
#include "src/crypto/digest.h"

namespace bft {

enum class MsgType : uint8_t {
  kRequest = 1,
  kReply = 2,
  kPrePrepare = 3,
  kPrepare = 4,
  kCommit = 5,
  kCheckpoint = 6,
  kViewChange = 7,
  kViewChangeAck = 8,
  kNewView = 9,
  kStatus = 10,
  kFetch = 11,
  kMetaData = 12,
  kData = 13,
  kBatchFetch = 14,
  kBatchReply = 15,
  kNewKey = 16,
  kQueryStable = 17,
  kReplyStable = 18,
};

using View = uint64_t;
using SeqNo = uint64_t;

// --- Field-list codec -----------------------------------------------------------------------

// A struct with a field list (see the header comment).
template <typename M>
concept WireStruct = requires(M& m) { M::Fields(m); };

// Encodes values by their C++ type into a Writer, an InlineWriter or a SizeCounter.
template <typename W>
struct WireWriter {
  W& w;

  void operator()(uint32_t v) const { w.U32(v); }
  void operator()(uint64_t v) const { w.U64(v); }
  void operator()(bool v) const { w.Bool(v); }
  void operator()(const Bytes& v) const { w.Var(v); }
  void operator()(const MsgBuffer& v) const { w.Var(v); }
  void operator()(const Digest& d) const { w.Raw(d.View()); }
  template <typename A, typename B>
  void operator()(const std::pair<A, B>& p) const {
    (*this)(p.first);
    (*this)(p.second);
  }
  template <typename T>
  void operator()(const std::vector<T>& v) const {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) {
      (*this)(e);
    }
  }
  template <WireStruct M>
  void operator()(const M& m) const {
    std::apply([this](const auto&... f) { ((*this)(f), ...); }, M::Fields(m));
    if constexpr (requires { m.auth; }) {
      w.Var(m.auth);
    }
  }
};
template <typename W>
WireWriter(W&) -> WireWriter<W>;

// Decodes values by their C++ type. After a failure the Reader is !ok() and the rest reads as
// zeros; callers check ok() once at the end.
struct WireReader {
  Reader& r;

  void operator()(uint32_t& v) const { v = r.U32(); }
  void operator()(uint64_t& v) const { v = r.U64(); }
  void operator()(bool& v) const { v = r.Bool(); }
  void operator()(Bytes& v) const { v = r.Var(); }
  void operator()(MsgBuffer& v) const { v = r.VarShared(); }
  void operator()(Digest& d) const { r.RawInto(d.bytes.data(), Digest::kSize); }
  template <typename A, typename B>
  void operator()(std::pair<A, B>& p) const {
    (*this)(p.first);
    (*this)(p.second);
  }
  template <typename T>
  void operator()(std::vector<T>& v) const {
    uint32_t n = r.Count();
    v.clear();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      (*this)(v.emplace_back());
    }
  }
  template <WireStruct M>
  void operator()(M& m) const {
    std::apply([this](auto&... f) { ((*this)(f), ...); }, M::Fields(m));
    if constexpr (requires { m.auth; }) {
      r.VarInto(m.auth);
    }
  }
};

// The encoding of `fields` in order, with no tag and no length: the MAC'd content and digest
// preimages, in inline storage.
template <typename... T>
InlineBytes WireBytes(const T&... fields) {
  InlineWriter w;
  (WireWriter{w}(fields), ...);
  return w.Take();
}

// A struct's field list encoded without `auth`: the AuthContent() of a type whose MAC covers
// its whole body.
template <WireStruct M>
InlineBytes FieldBytes(const M& m) {
  return std::apply([](const auto&... f) { return WireBytes(f...); }, M::Fields(m));
}

// --- Request / Reply ------------------------------------------------------------------------

// Designated-replier value meaning "every replica sends the full result" (Section 5.1.1).
constexpr NodeId kEveryone = 0xffffffff;

struct RequestMsg {
  NodeId client = 0;
  uint64_t timestamp = 0;  // per-client, monotonically increasing; gives exactly-once semantics
  bool read_only = false;
  NodeId designated_replier = 0;  // digest-replies optimization (Section 5.1.1)
  MsgBuffer op;  // immutable and shared by every copy of the request
  InlineBytes auth;

  // Digest identifying the request: H(client, timestamp, op). Used in pre-prepares that carry
  // requests separately and in the replicas' replay caches. Computed from the fields on every
  // call, never cached: a cached value would go stale when a field changes.
  Digest RequestDigest() const;

  static auto Fields(auto& m) {
    return std::tie(m.client, m.timestamp, m.read_only, m.designated_replier, m.op);
  }
  // The fixed header (client, timestamp, read_only, designated_replier) plus the request
  // digest, as ReplyMsg's MAC covers the result digest (Fig 6-1): the op is hashed once, and
  // MAC cost does not grow with its size.
  InlineBytes AuthContent() const { return AuthContent(RequestDigest()); }
  // The same bytes for a caller that already computed `digest` = RequestDigest().
  InlineBytes AuthContent(const Digest& digest) const;
};

struct ReplyMsg {
  View view = 0;
  uint64_t timestamp = 0;
  NodeId client = 0;
  NodeId replica = 0;
  bool tentative = false;    // tentative-execution optimization (Section 5.1.2)
  bool has_result = false;   // false => digest-only reply (Section 5.1.1)
  Bytes result;
  Digest result_digest;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.view, m.timestamp, m.client, m.replica, m.tentative, m.has_result,
                    m.result, m.result_digest);
  }
  // The fixed header plus the result digest (Fig 6-1): the bulk result is checked against the
  // digest, so MAC cost does not grow with its size.
  InlineBytes AuthContent() const;
};

// --- Normal case ------------------------------------------------------------------------------

// A pre-prepare carries a *batch*: small requests inline (full messages, so backups can check
// the clients' authentication), large requests by digest (separate transmission, Section
// 5.1.5), plus the primary's non-deterministic choice for the batch (Section 5.4).
struct PrePrepareMsg {
  View view = 0;
  SeqNo seq = 0;
  Bytes ndet;
  std::vector<RequestMsg> inline_requests;
  std::vector<Digest> separate_digests;
  InlineBytes auth;

  // Digest identifying the batch *content* (requests + ndet), independent of view/seq: this is
  // the `d` carried by prepares, commits, and view-change P/Q entries, so a batch re-proposed
  // in a later view keeps its identity.
  // The request digests enter in execution order: inline requests first, then separate ones.
  Digest BatchDigest() const;

  static auto Fields(auto& m) {
    return std::tie(m.view, m.seq, m.ndet, m.inline_requests, m.separate_digests);
  }
  // The fixed-size header: view, seq, and the batch digest (Fig 6-1 pre-prepare header).
  InlineBytes AuthContent() const { return AuthContent(BatchDigest()); }
  // The same bytes for a caller that already computed `batch_digest` = BatchDigest().
  InlineBytes AuthContent(const Digest& batch_digest) const;
};

struct PrepareMsg {
  View view = 0;
  SeqNo seq = 0;
  Digest batch_digest;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) { return std::tie(m.view, m.seq, m.batch_digest, m.replica); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

struct CommitMsg {
  View view = 0;
  SeqNo seq = 0;
  Digest batch_digest;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) { return std::tie(m.view, m.seq, m.batch_digest, m.replica); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

struct CheckpointMsg {
  SeqNo seq = 0;
  Digest state_digest;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) { return std::tie(m.seq, m.state_digest, m.replica); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

// --- View changes (Chapter 3) -----------------------------------------------------------------

struct ViewChangeMsg {
  View view = 0;       // the view being moved *to*
  SeqNo h = 0;         // sequence number of the sender's last stable checkpoint
  // C: checkpoints the sender holds, as (seq, state digest).
  std::vector<std::pair<SeqNo, Digest>> checkpoints;
  // P: requests prepared at the sender (Fig 3-2).
  struct PEntry {
    SeqNo seq = 0;
    Digest d;
    View view = 0;
    static auto Fields(auto& e) { return std::tie(e.seq, e.d, e.view); }
  };
  std::vector<PEntry> p;
  // Q: requests pre-prepared at the sender; bounded per-seq history (Section 3.2.5).
  struct QEntry {
    SeqNo seq = 0;
    std::vector<std::pair<Digest, View>> dv;  // (digest, latest view it pre-prepared in)
    static auto Fields(auto& e) { return std::tie(e.seq, e.dv); }
  };
  std::vector<QEntry> q;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.view, m.h, m.checkpoints, m.p, m.q, m.replica);
  }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
  // Digest acknowledged by view-change-acks: the hash of AuthContent().
  Digest MessageDigest() const { return ComputeDigest(AuthContent()); }
};

struct ViewChangeAckMsg {
  View view = 0;
  NodeId replica = 0;    // sender of the ack
  NodeId vc_sender = 0;  // replica whose view-change is being acknowledged
  Digest vc_digest;
  InlineBytes auth;      // full authenticator: acks are multicast to every replica

  static auto Fields(auto& m) { return std::tie(m.view, m.replica, m.vc_sender, m.vc_digest); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

// The batch payload for a chosen sequence number that the new primary propagates so backups
// can execute. (The real library relied on the retransmission machinery to fetch missing
// requests; carrying payloads in the new-view plus the BatchFetch/BatchReply pair below covers
// the same need.)
struct BatchPayload {
  Bytes ndet;
  std::vector<RequestMsg> requests;  // full requests, in execution order

  Digest BatchDigest() const;
  static auto Fields(auto& m) { return std::tie(m.ndet, m.requests); }
};

struct NewViewMsg {
  View view = 0;
  // V: the new-view certificate — (replica, digest of its view-change message).
  std::vector<std::pair<NodeId, Digest>> vc_set;
  SeqNo min_s = 0;        // h: start checkpoint chosen by the decision procedure
  Digest chkpt_digest;    // its state digest
  // X: chosen batch digest per sequence number in (min_s, max_s]; a zero digest = null request.
  std::vector<std::pair<SeqNo, Digest>> chosen;
  // Payloads for the non-null chosen digests that the primary holds.
  std::vector<BatchPayload> payloads;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.view, m.vc_set, m.min_s, m.chkpt_digest, m.chosen, m.payloads);
  }
  // The decision part only: payloads are self-certifying (checked against the chosen digests).
  InlineBytes AuthContent() const;
};

// --- Retransmission (Section 5.2) --------------------------------------------------------------

struct StatusMsg {
  View view = 0;
  bool view_active = true;
  SeqNo last_stable = 0;
  SeqNo last_exec = 0;
  // Bit i: sequence number last_stable + 1 + i is prepared / committed at the sender.
  Bytes prepared_bits;
  Bytes committed_bits;
  bool has_new_view = false;
  // Bit r: sender has accepted a view-change message from replica r for `view`.
  Bytes vc_have_bits;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.view, m.view_active, m.last_stable, m.last_exec, m.prepared_bits,
                    m.committed_bits, m.has_new_view, m.vc_have_bits, m.replica);
  }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

// --- State transfer (Section 5.3.2) -------------------------------------------------------------

struct FetchMsg {
  uint32_t level = 0;
  uint64_t index = 0;
  SeqNo last_known = 0;   // lc: last checkpoint the requester has for this partition
  SeqNo target = 0;       // c: checkpoint being fetched (0 = unknown / any recent)
  NodeId replier = 0;     // designated full replier
  NodeId replica = 0;     // requester
  uint64_t nonce = 0;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.level, m.index, m.last_known, m.target, m.replier, m.replica, m.nonce);
  }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

// Level value in FETCH/META-DATA denoting the checkpoint summary (root digest + extra blob).
constexpr uint32_t kSummaryLevel = 0xffffffff;

struct MetaDataMsg {
  SeqNo target = 0;  // checkpoint the sub-partition digests refer to
  uint32_t level = 0;
  uint64_t index = 0;
  struct Part {
    uint64_t index = 0;
    SeqNo lm = 0;  // last checkpoint at which the sub-partition was modified
    Digest d;
    static auto Fields(auto& p) { return std::tie(p.index, p.lm, p.d); }
  };
  std::vector<Part> parts;
  Bytes extra;  // checkpoint extra blob; only present in summary replies
  NodeId replica = 0;
  uint64_t nonce = 0;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.target, m.level, m.index, m.parts, m.extra, m.replica, m.nonce);
  }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

struct DataMsg {
  uint64_t index = 0;  // page index
  SeqNo lm = 0;
  Bytes value;
  // Data replies need no MAC: the fetcher verifies against a known digest (Section 5.3.2).

  static auto Fields(auto& m) { return std::tie(m.index, m.lm, m.value); }
};

struct BatchFetchMsg {
  Digest batch_digest;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) { return std::tie(m.batch_digest, m.replica); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

struct BatchReplyMsg {
  BatchPayload payload;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) { return std::tie(m.payload, m.replica); }
  // The replica only: the fetcher checks the payload against the digest it asked for.
  InlineBytes AuthContent() const { return WireBytes(replica); }
};

// --- Key management / recovery (Chapter 4) ------------------------------------------------------

struct NewKeyMsg {
  NodeId replica = 0;
  uint64_t epoch = 0;    // key-refreshment epoch; receivers reject non-monotonic epochs
  uint64_t counter = 0;  // secure co-processor counter (anti suppress-replay)
  InlineBytes auth;      // always a signature

  static auto Fields(auto& m) { return std::tie(m.replica, m.epoch, m.counter); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

struct QueryStableMsg {
  NodeId replica = 0;
  uint64_t nonce = 0;
  InlineBytes auth;

  static auto Fields(auto& m) { return std::tie(m.replica, m.nonce); }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

struct ReplyStableMsg {
  SeqNo last_checkpoint = 0;  // c
  SeqNo last_prepared = 0;    // p
  uint64_t nonce = 0;
  NodeId replica = 0;
  InlineBytes auth;

  static auto Fields(auto& m) {
    return std::tie(m.last_checkpoint, m.last_prepared, m.nonce, m.replica);
  }
  InlineBytes AuthContent() const { return FieldBytes(*this); }
};

// --- Top-level encode/decode --------------------------------------------------------------------

using Message =
    std::variant<RequestMsg, ReplyMsg, PrePrepareMsg, PrepareMsg, CommitMsg, CheckpointMsg,
                 ViewChangeMsg, ViewChangeAckMsg, NewViewMsg, StatusMsg, FetchMsg, MetaDataMsg,
                 DataMsg, BatchFetchMsg, BatchReplyMsg, NewKeyMsg, QueryStableMsg,
                 ReplyStableMsg>;

MsgType TypeOf(const Message& m);
// EncodeTyped(m) for whichever type `m` holds.
Bytes EncodeMessage(const Message& m);
// Slices each request op out of `wire`, sharing its storage (the receive path).
std::optional<Message> DecodeMessage(const MsgBuffer& wire);
// Copies each request op out of `wire`.
std::optional<Message> DecodeMessage(ByteView wire);
std::optional<Message> DecodeMessage(const Bytes& wire);

// Number of wire message types (tags run 1..kNumMsgTypes).
constexpr int kNumMsgTypes = 18;

// Stable lowercase label for metrics and logs ("pre_prepare", "view_change", ...).
const char* MsgTypeName(MsgType t);

// Compile-time tag for a message struct, from its position in Message: lets the templated send
// helpers bump a per-type counter without a runtime variant visit.
template <typename M>
struct MsgTypeTrait {
  static constexpr MsgType value = []<typename... Ts>(std::variant<Ts...>*) {
    size_t i = 0;
    ((std::is_same_v<M, Ts> || (++i, false)) || ...);
    return static_cast<MsgType>(i + 1);
  }(static_cast<Message*>(nullptr));
  static_assert(static_cast<int>(value) <= kNumMsgTypes, "not a Message alternative");
};
// The variant lists one struct per tag, in tag order (bft_lint's msgtype-order rule checks
// each name against its enumerator).
static_assert(std::variant_size_v<Message> == kNumMsgTypes);
static_assert(MsgTypeTrait<RequestMsg>::value == MsgType::kRequest);
static_assert(MsgTypeTrait<ReplyStableMsg>::value == MsgType::kReplyStable);

// Writes a digest's 16 raw bytes (for encoders outside the field lists).
void WriteDigest(Writer& w, const Digest& d);

// Encodes `m` from its own type at its exact size: a counting pass, then one allocation.
template <WireStruct M>
Bytes EncodeTyped(const M& m) {
  SizeCounter size;
  size.U8(0);
  WireWriter{size}(m);
  Writer w(size.size());
  w.U8(static_cast<uint8_t>(MsgTypeTrait<M>::value));
  WireWriter{w}(m);
  return w.Take();
}

}  // namespace bft

#endif  // SRC_CORE_MESSAGES_H_
