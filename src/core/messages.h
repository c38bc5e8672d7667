// Protocol message types and wire formats (thesis Fig 6-1 and Chapters 2-5).
//
// Every message consists of a one-byte type tag, a body, and an authentication trailer (an
// authenticator — one MAC per replica —, a single MAC, or a signature, depending on message
// type and AuthMode). `AuthContent()` returns the bytes covered by authentication: the body
// with the trailer excluded, except that a request's op, a reply's result and a pre-prepare's
// batch are covered through their digests, as in the real library's MAC-over-fixed-header
// scheme (Fig 6-1).
//
// Decoding is defensive (Byzantine senders): `Decode*` returns false on malformed input.
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/bytes.h"
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

// --- Request / Reply ------------------------------------------------------------------------

struct RequestMsg {
  NodeId client = 0;
  uint64_t timestamp = 0;  // per-client, monotonically increasing; gives exactly-once semantics
  bool read_only = false;
  NodeId designated_replier = 0;  // digest-replies optimization (Section 5.1.1)
  Bytes op;
  Bytes auth;

  // Digest identifying the request: H(client, timestamp, op). Used in pre-prepares that carry
  // requests separately and in the replicas' replay caches. Computed from the fields on every
  // call, never cached: a cached value would go stale when a field changes.
  Digest RequestDigest() const;

  void EncodeBody(Writer& w) const;
  // The fixed header (client, timestamp, read_only, designated_replier) plus the request
  // digest, as ReplyMsg's MAC covers the result digest (Fig 6-1): the op is hashed once, and
  // MAC cost does not grow with its size.
  Bytes AuthContent() const { return AuthContent(RequestDigest()); }
  // The same bytes for a caller that already computed `digest` = RequestDigest().
  Bytes AuthContent(const Digest& digest) const;
  static bool DecodeBody(Reader& r, RequestMsg* out);
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
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, ReplyMsg* out);
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
  Bytes auth;

  // Digest identifying the batch *content* (requests + ndet), independent of view/seq: this is
  // the `d` carried by prepares, commits, and view-change P/Q entries, so a batch re-proposed
  // in a later view keeps its identity.
  Digest BatchDigest() const;

  // Ordered request digests (inline first, then separate), i.e. the execution order.
  std::vector<Digest> OrderedRequestDigests() const;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, PrePrepareMsg* out);
};

struct PrepareMsg {
  View view = 0;
  SeqNo seq = 0;
  Digest batch_digest;
  NodeId replica = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, PrepareMsg* out);
};

struct CommitMsg {
  View view = 0;
  SeqNo seq = 0;
  Digest batch_digest;
  NodeId replica = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, CommitMsg* out);
};

struct CheckpointMsg {
  SeqNo seq = 0;
  Digest state_digest;
  NodeId replica = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, CheckpointMsg* out);
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
  };
  std::vector<PEntry> p;
  // Q: requests pre-prepared at the sender; bounded per-seq history (Section 3.2.5).
  struct QEntry {
    SeqNo seq = 0;
    std::vector<std::pair<Digest, View>> dv;  // (digest, latest view it pre-prepared in)
  };
  std::vector<QEntry> q;
  NodeId replica = 0;
  Bytes auth;

  Digest MessageDigest() const;  // digest acknowledged by view-change-acks

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, ViewChangeMsg* out);
};

struct ViewChangeAckMsg {
  View view = 0;
  NodeId replica = 0;    // sender of the ack
  NodeId vc_sender = 0;  // replica whose view-change is being acknowledged
  Digest vc_digest;
  Bytes auth;            // single MAC to the new primary

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, ViewChangeAckMsg* out);
};

// The batch payload for a chosen sequence number that the new primary propagates so backups
// can execute. (The real library relied on the retransmission machinery to fetch missing
// requests; carrying payloads in the new-view plus the BatchFetch/BatchReply pair below covers
// the same need.)
struct BatchPayload {
  Bytes ndet;
  std::vector<RequestMsg> requests;  // full requests, in execution order

  Digest BatchDigest() const;
  void Encode(Writer& w) const;
  static bool Decode(Reader& r, BatchPayload* out);
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
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, NewViewMsg* out);
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
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, StatusMsg* out);
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
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, FetchMsg* out);
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
  };
  std::vector<Part> parts;
  Bytes extra;  // checkpoint extra blob; only present in summary replies
  NodeId replica = 0;
  uint64_t nonce = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, MetaDataMsg* out);
};

struct DataMsg {
  uint64_t index = 0;  // page index
  SeqNo lm = 0;
  Bytes value;
  // Data replies need no MAC: the fetcher verifies against a known digest (Section 5.3.2).

  void EncodeBody(Writer& w) const;
  static bool DecodeBody(Reader& r, DataMsg* out);
};

struct BatchFetchMsg {
  Digest batch_digest;
  NodeId replica = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, BatchFetchMsg* out);
};

struct BatchReplyMsg {
  BatchPayload payload;
  NodeId replica = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, BatchReplyMsg* out);
};

// --- Key management / recovery (Chapter 4) ------------------------------------------------------

struct NewKeyMsg {
  NodeId replica = 0;
  uint64_t epoch = 0;    // key-refreshment epoch; receivers reject non-monotonic epochs
  uint64_t counter = 0;  // secure co-processor counter (anti suppress-replay)
  Bytes auth;            // always a signature

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, NewKeyMsg* out);
};

struct QueryStableMsg {
  NodeId replica = 0;
  uint64_t nonce = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, QueryStableMsg* out);
};

struct ReplyStableMsg {
  SeqNo last_checkpoint = 0;  // c
  SeqNo last_prepared = 0;    // p
  uint64_t nonce = 0;
  NodeId replica = 0;
  Bytes auth;

  void EncodeBody(Writer& w) const;
  Bytes AuthContent() const;
  static bool DecodeBody(Reader& r, ReplyStableMsg* out);
};

// --- Top-level encode/decode --------------------------------------------------------------------

using Message =
    std::variant<RequestMsg, ReplyMsg, PrePrepareMsg, PrepareMsg, CommitMsg, CheckpointMsg,
                 ViewChangeMsg, ViewChangeAckMsg, NewViewMsg, StatusMsg, FetchMsg, MetaDataMsg,
                 DataMsg, BatchFetchMsg, BatchReplyMsg, NewKeyMsg, QueryStableMsg,
                 ReplyStableMsg>;

MsgType TypeOf(const Message& m);
Bytes EncodeMessage(const Message& m);
// Appends the encoding to an existing writer — the formation layer and other frame-aware
// callers reuse one sized buffer instead of allocating per message.
void EncodeMessageTo(Writer& w, const Message& m);
std::optional<Message> DecodeMessage(ByteView wire);

// Number of wire message types (tags run 1..kNumMsgTypes).
constexpr int kNumMsgTypes = 18;

// Stable lowercase label for metrics and logs ("pre_prepare", "view_change", ...).
const char* MsgTypeName(MsgType t);

// Compile-time tag for a message struct — lets the templated send helpers bump a per-type
// counter without a runtime variant visit.
template <typename M>
struct MsgTypeTrait;
template <> struct MsgTypeTrait<RequestMsg> { static constexpr MsgType value = MsgType::kRequest; };
template <> struct MsgTypeTrait<ReplyMsg> { static constexpr MsgType value = MsgType::kReply; };
template <> struct MsgTypeTrait<PrePrepareMsg> { static constexpr MsgType value = MsgType::kPrePrepare; };
template <> struct MsgTypeTrait<PrepareMsg> { static constexpr MsgType value = MsgType::kPrepare; };
template <> struct MsgTypeTrait<CommitMsg> { static constexpr MsgType value = MsgType::kCommit; };
template <> struct MsgTypeTrait<CheckpointMsg> { static constexpr MsgType value = MsgType::kCheckpoint; };
template <> struct MsgTypeTrait<ViewChangeMsg> { static constexpr MsgType value = MsgType::kViewChange; };
template <> struct MsgTypeTrait<ViewChangeAckMsg> { static constexpr MsgType value = MsgType::kViewChangeAck; };
template <> struct MsgTypeTrait<NewViewMsg> { static constexpr MsgType value = MsgType::kNewView; };
template <> struct MsgTypeTrait<StatusMsg> { static constexpr MsgType value = MsgType::kStatus; };
template <> struct MsgTypeTrait<FetchMsg> { static constexpr MsgType value = MsgType::kFetch; };
template <> struct MsgTypeTrait<MetaDataMsg> { static constexpr MsgType value = MsgType::kMetaData; };
template <> struct MsgTypeTrait<DataMsg> { static constexpr MsgType value = MsgType::kData; };
template <> struct MsgTypeTrait<BatchFetchMsg> { static constexpr MsgType value = MsgType::kBatchFetch; };
template <> struct MsgTypeTrait<BatchReplyMsg> { static constexpr MsgType value = MsgType::kBatchReply; };
template <> struct MsgTypeTrait<NewKeyMsg> { static constexpr MsgType value = MsgType::kNewKey; };
template <> struct MsgTypeTrait<QueryStableMsg> { static constexpr MsgType value = MsgType::kQueryStable; };
template <> struct MsgTypeTrait<ReplyStableMsg> { static constexpr MsgType value = MsgType::kReplyStable; };

// Helpers shared by encoders.
void WriteDigest(Writer& w, const Digest& d);
bool ReadDigest(Reader& r, Digest* d);

}  // namespace bft

#endif  // SRC_CORE_MESSAGES_H_
