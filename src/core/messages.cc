#include "src/core/messages.h"

namespace bft {

namespace {
// Upper bound on decoded vector lengths; a Byzantine sender must not be able to force huge
// allocations with a tiny message.
constexpr uint32_t kMaxVec = 1 << 20;

bool ReadCount(Reader& r, uint32_t* out) {
  *out = r.U32();
  return r.ok() && *out <= kMaxVec;
}
}  // namespace

void WriteDigest(Writer& w, const Digest& d) { w.Raw(d.View()); }

bool ReadDigest(Reader& r, Digest* d) {
  Bytes raw = r.Raw(Digest::kSize);
  if (!r.ok()) {
    return false;
  }
  std::copy(raw.begin(), raw.end(), d->bytes.begin());
  return true;
}

// --- RequestMsg ---------------------------------------------------------------------------------

Digest RequestMsg::RequestDigest() const {
  // H(U32 client | U64 timestamp | U32 len | op): the same preimage as a Writer encoding,
  // streamed so the op is hashed in place rather than copied first.
  Writer header;
  header.U32(client);
  header.U64(timestamp);
  header.U32(static_cast<uint32_t>(op.size()));
  return ComputeDigestConcat({header.data(), op});
}

void RequestMsg::EncodeBody(Writer& w) const {
  w.U32(client);
  w.U64(timestamp);
  w.Bool(read_only);
  w.U32(designated_replier);
  w.Var(op);
  w.Var(auth);
}

Bytes RequestMsg::AuthContent(const Digest& digest) const {
  Writer w;
  w.U32(client);
  w.U64(timestamp);
  w.Bool(read_only);
  w.U32(designated_replier);
  WriteDigest(w, digest);
  return w.Take();
}

bool RequestMsg::DecodeBody(Reader& r, RequestMsg* out) {
  out->client = r.U32();
  out->timestamp = r.U64();
  out->read_only = r.Bool();
  out->designated_replier = r.U32();
  out->op = r.Var();
  out->auth = r.Var();
  return r.ok();
}

// --- ReplyMsg -----------------------------------------------------------------------------------

namespace {
void ReplyCore(const ReplyMsg& m, Writer& w) {
  w.U64(m.view);
  w.U64(m.timestamp);
  w.U32(m.client);
  w.U32(m.replica);
  w.Bool(m.tentative);
  w.Bool(m.has_result);
  w.Var(m.result);
  WriteDigest(w, m.result_digest);
}
}  // namespace

void ReplyMsg::EncodeBody(Writer& w) const {
  ReplyCore(*this, w);
  w.Var(auth);
}

Bytes ReplyMsg::AuthContent() const {
  // The MAC covers only the fixed-size header fields plus the result digest (Fig 6-1): the
  // bulk result is checked against the digest, keeping MAC cost independent of result size.
  Writer w;
  w.U64(view);
  w.U64(timestamp);
  w.U32(client);
  w.U32(replica);
  w.Bool(tentative);
  WriteDigest(w, result_digest);
  return w.Take();
}

bool ReplyMsg::DecodeBody(Reader& r, ReplyMsg* out) {
  out->view = r.U64();
  out->timestamp = r.U64();
  out->client = r.U32();
  out->replica = r.U32();
  out->tentative = r.Bool();
  out->has_result = r.Bool();
  out->result = r.Var();
  if (!ReadDigest(r, &out->result_digest)) {
    return false;
  }
  out->auth = r.Var();
  return r.ok();
}

// --- PrePrepareMsg ------------------------------------------------------------------------------

namespace {
void PrePrepareCore(const PrePrepareMsg& m, Writer& w) {
  w.U64(m.view);
  w.U64(m.seq);
  w.Var(m.ndet);
  w.U32(static_cast<uint32_t>(m.inline_requests.size()));
  for (const RequestMsg& req : m.inline_requests) {
    req.EncodeBody(w);
  }
  w.U32(static_cast<uint32_t>(m.separate_digests.size()));
  for (const Digest& d : m.separate_digests) {
    WriteDigest(w, d);
  }
}
}  // namespace

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

void PrePrepareMsg::EncodeBody(Writer& w) const {
  PrePrepareCore(*this, w);
  w.Var(auth);
}

Bytes PrePrepareMsg::AuthContent() const {
  // Fixed-size header: view, seq, and the batch digest (Fig 6-1 pre-prepare header).
  Writer w;
  w.U64(view);
  w.U64(seq);
  WriteDigest(w, BatchDigest());
  return w.Take();
}

bool PrePrepareMsg::DecodeBody(Reader& r, PrePrepareMsg* out) {
  out->view = r.U64();
  out->seq = r.U64();
  out->ndet = r.Var();
  uint32_t n_inline = 0;
  if (!ReadCount(r, &n_inline)) {
    return false;
  }
  out->inline_requests.resize(n_inline);
  for (uint32_t i = 0; i < n_inline; ++i) {
    if (!RequestMsg::DecodeBody(r, &out->inline_requests[i])) {
      return false;
    }
  }
  uint32_t n_sep = 0;
  if (!ReadCount(r, &n_sep)) {
    return false;
  }
  out->separate_digests.resize(n_sep);
  for (uint32_t i = 0; i < n_sep; ++i) {
    if (!ReadDigest(r, &out->separate_digests[i])) {
      return false;
    }
  }
  out->auth = r.Var();
  return r.ok();
}

// --- PrepareMsg / CommitMsg / CheckpointMsg -----------------------------------------------------

namespace {
template <typename T>
void PhaseCore(const T& m, Writer& w) {
  w.U64(m.view);
  w.U64(m.seq);
  WriteDigest(w, m.batch_digest);
  w.U32(m.replica);
}

template <typename T>
bool PhaseDecode(Reader& r, T* out) {
  out->view = r.U64();
  out->seq = r.U64();
  if (!ReadDigest(r, &out->batch_digest)) {
    return false;
  }
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
}
}  // namespace

void PrepareMsg::EncodeBody(Writer& w) const {
  PhaseCore(*this, w);
  w.Var(auth);
}

Bytes PrepareMsg::AuthContent() const {
  Writer w;
  PhaseCore(*this, w);
  return w.Take();
}

bool PrepareMsg::DecodeBody(Reader& r, PrepareMsg* out) { return PhaseDecode(r, out); }

void CommitMsg::EncodeBody(Writer& w) const {
  PhaseCore(*this, w);
  w.Var(auth);
}

Bytes CommitMsg::AuthContent() const {
  Writer w;
  PhaseCore(*this, w);
  return w.Take();
}

bool CommitMsg::DecodeBody(Reader& r, CommitMsg* out) { return PhaseDecode(r, out); }

namespace {
void CheckpointCore(const CheckpointMsg& m, Writer& w) {
  w.U64(m.seq);
  WriteDigest(w, m.state_digest);
  w.U32(m.replica);
}
}  // namespace

void CheckpointMsg::EncodeBody(Writer& w) const {
  CheckpointCore(*this, w);
  w.Var(auth);
}

Bytes CheckpointMsg::AuthContent() const {
  Writer w;
  CheckpointCore(*this, w);
  return w.Take();
}

bool CheckpointMsg::DecodeBody(Reader& r, CheckpointMsg* out) {
  out->seq = r.U64();
  if (!ReadDigest(r, &out->state_digest)) {
    return false;
  }
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
}

// --- ViewChangeMsg ------------------------------------------------------------------------------

namespace {
void ViewChangeCore(const ViewChangeMsg& m, Writer& w) {
  w.U64(m.view);
  w.U64(m.h);
  w.U32(static_cast<uint32_t>(m.checkpoints.size()));
  for (const auto& [seq, d] : m.checkpoints) {
    w.U64(seq);
    WriteDigest(w, d);
  }
  w.U32(static_cast<uint32_t>(m.p.size()));
  for (const auto& e : m.p) {
    w.U64(e.seq);
    WriteDigest(w, e.d);
    w.U64(e.view);
  }
  w.U32(static_cast<uint32_t>(m.q.size()));
  for (const auto& e : m.q) {
    w.U64(e.seq);
    w.U32(static_cast<uint32_t>(e.dv.size()));
    for (const auto& [d, v] : e.dv) {
      WriteDigest(w, d);
      w.U64(v);
    }
  }
  w.U32(m.replica);
}
}  // namespace

Digest ViewChangeMsg::MessageDigest() const {
  Writer w;
  ViewChangeCore(*this, w);
  return ComputeDigest(w.data());
}

void ViewChangeMsg::EncodeBody(Writer& w) const {
  ViewChangeCore(*this, w);
  w.Var(auth);
}

Bytes ViewChangeMsg::AuthContent() const {
  Writer w;
  ViewChangeCore(*this, w);
  return w.Take();
}

bool ViewChangeMsg::DecodeBody(Reader& r, ViewChangeMsg* out) {
  out->view = r.U64();
  out->h = r.U64();
  uint32_t n_c = 0;
  if (!ReadCount(r, &n_c)) {
    return false;
  }
  out->checkpoints.resize(n_c);
  for (uint32_t i = 0; i < n_c; ++i) {
    out->checkpoints[i].first = r.U64();
    if (!ReadDigest(r, &out->checkpoints[i].second)) {
      return false;
    }
  }
  uint32_t n_p = 0;
  if (!ReadCount(r, &n_p)) {
    return false;
  }
  out->p.resize(n_p);
  for (uint32_t i = 0; i < n_p; ++i) {
    out->p[i].seq = r.U64();
    if (!ReadDigest(r, &out->p[i].d)) {
      return false;
    }
    out->p[i].view = r.U64();
  }
  uint32_t n_q = 0;
  if (!ReadCount(r, &n_q)) {
    return false;
  }
  out->q.resize(n_q);
  for (uint32_t i = 0; i < n_q; ++i) {
    out->q[i].seq = r.U64();
    uint32_t n_dv = 0;
    if (!ReadCount(r, &n_dv)) {
      return false;
    }
    out->q[i].dv.resize(n_dv);
    for (uint32_t j = 0; j < n_dv; ++j) {
      if (!ReadDigest(r, &out->q[i].dv[j].first)) {
        return false;
      }
      out->q[i].dv[j].second = r.U64();
    }
  }
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
}

// --- ViewChangeAckMsg ---------------------------------------------------------------------------

namespace {
void VcAckCore(const ViewChangeAckMsg& m, Writer& w) {
  w.U64(m.view);
  w.U32(m.replica);
  w.U32(m.vc_sender);
  WriteDigest(w, m.vc_digest);
}
}  // namespace

void ViewChangeAckMsg::EncodeBody(Writer& w) const {
  VcAckCore(*this, w);
  w.Var(auth);
}

Bytes ViewChangeAckMsg::AuthContent() const {
  Writer w;
  VcAckCore(*this, w);
  return w.Take();
}

bool ViewChangeAckMsg::DecodeBody(Reader& r, ViewChangeAckMsg* out) {
  out->view = r.U64();
  out->replica = r.U32();
  out->vc_sender = r.U32();
  if (!ReadDigest(r, &out->vc_digest)) {
    return false;
  }
  out->auth = r.Var();
  return r.ok();
}

// --- BatchPayload / NewViewMsg ------------------------------------------------------------------

Digest BatchPayload::BatchDigest() const {
  Writer w;
  w.Var(ndet);
  for (const RequestMsg& req : requests) {
    WriteDigest(w, req.RequestDigest());
  }
  return ComputeDigest(w.data());
}

void BatchPayload::Encode(Writer& w) const {
  w.Var(ndet);
  w.U32(static_cast<uint32_t>(requests.size()));
  for (const RequestMsg& req : requests) {
    req.EncodeBody(w);
  }
}

bool BatchPayload::Decode(Reader& r, BatchPayload* out) {
  out->ndet = r.Var();
  uint32_t n = 0;
  if (!ReadCount(r, &n)) {
    return false;
  }
  out->requests.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!RequestMsg::DecodeBody(r, &out->requests[i])) {
      return false;
    }
  }
  return r.ok();
}

namespace {
void NewViewCore(const NewViewMsg& m, Writer& w) {
  w.U64(m.view);
  w.U32(static_cast<uint32_t>(m.vc_set.size()));
  for (const auto& [rep, d] : m.vc_set) {
    w.U32(rep);
    WriteDigest(w, d);
  }
  w.U64(m.min_s);
  WriteDigest(w, m.chkpt_digest);
  w.U32(static_cast<uint32_t>(m.chosen.size()));
  for (const auto& [seq, d] : m.chosen) {
    w.U64(seq);
    WriteDigest(w, d);
  }
}
}  // namespace

void NewViewMsg::EncodeBody(Writer& w) const {
  NewViewCore(*this, w);
  w.U32(static_cast<uint32_t>(payloads.size()));
  for (const BatchPayload& p : payloads) {
    p.Encode(w);
  }
  w.Var(auth);
}

Bytes NewViewMsg::AuthContent() const {
  // Payloads are self-certifying (checked against the chosen digests), so authentication
  // covers only the decision part.
  Writer w;
  NewViewCore(*this, w);
  return w.Take();
}

bool NewViewMsg::DecodeBody(Reader& r, NewViewMsg* out) {
  out->view = r.U64();
  uint32_t n_vc = 0;
  if (!ReadCount(r, &n_vc)) {
    return false;
  }
  out->vc_set.resize(n_vc);
  for (uint32_t i = 0; i < n_vc; ++i) {
    out->vc_set[i].first = r.U32();
    if (!ReadDigest(r, &out->vc_set[i].second)) {
      return false;
    }
  }
  out->min_s = r.U64();
  if (!ReadDigest(r, &out->chkpt_digest)) {
    return false;
  }
  uint32_t n_x = 0;
  if (!ReadCount(r, &n_x)) {
    return false;
  }
  out->chosen.resize(n_x);
  for (uint32_t i = 0; i < n_x; ++i) {
    out->chosen[i].first = r.U64();
    if (!ReadDigest(r, &out->chosen[i].second)) {
      return false;
    }
  }
  uint32_t n_pl = 0;
  if (!ReadCount(r, &n_pl)) {
    return false;
  }
  out->payloads.resize(n_pl);
  for (uint32_t i = 0; i < n_pl; ++i) {
    if (!BatchPayload::Decode(r, &out->payloads[i])) {
      return false;
    }
  }
  out->auth = r.Var();
  return r.ok();
}

// --- StatusMsg ----------------------------------------------------------------------------------

namespace {
void StatusCore(const StatusMsg& m, Writer& w) {
  w.U64(m.view);
  w.Bool(m.view_active);
  w.U64(m.last_stable);
  w.U64(m.last_exec);
  w.Var(m.prepared_bits);
  w.Var(m.committed_bits);
  w.Bool(m.has_new_view);
  w.Var(m.vc_have_bits);
  w.U32(m.replica);
}
}  // namespace

void StatusMsg::EncodeBody(Writer& w) const {
  StatusCore(*this, w);
  w.Var(auth);
}

Bytes StatusMsg::AuthContent() const {
  Writer w;
  StatusCore(*this, w);
  return w.Take();
}

bool StatusMsg::DecodeBody(Reader& r, StatusMsg* out) {
  out->view = r.U64();
  out->view_active = r.Bool();
  out->last_stable = r.U64();
  out->last_exec = r.U64();
  out->prepared_bits = r.Var();
  out->committed_bits = r.Var();
  out->has_new_view = r.Bool();
  out->vc_have_bits = r.Var();
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
}

// --- State transfer -----------------------------------------------------------------------------

namespace {
void FetchCore(const FetchMsg& m, Writer& w) {
  w.U32(m.level);
  w.U64(m.index);
  w.U64(m.last_known);
  w.U64(m.target);
  w.U32(m.replier);
  w.U32(m.replica);
  w.U64(m.nonce);
}
}  // namespace

void FetchMsg::EncodeBody(Writer& w) const {
  FetchCore(*this, w);
  w.Var(auth);
}

Bytes FetchMsg::AuthContent() const {
  Writer w;
  FetchCore(*this, w);
  return w.Take();
}

bool FetchMsg::DecodeBody(Reader& r, FetchMsg* out) {
  out->level = r.U32();
  out->index = r.U64();
  out->last_known = r.U64();
  out->target = r.U64();
  out->replier = r.U32();
  out->replica = r.U32();
  out->nonce = r.U64();
  out->auth = r.Var();
  return r.ok();
}

namespace {
void MetaDataCore(const MetaDataMsg& m, Writer& w) {
  w.U64(m.target);
  w.U32(m.level);
  w.U64(m.index);
  w.U32(static_cast<uint32_t>(m.parts.size()));
  for (const auto& p : m.parts) {
    w.U64(p.index);
    w.U64(p.lm);
    WriteDigest(w, p.d);
  }
  w.Var(m.extra);
  w.U32(m.replica);
  w.U64(m.nonce);
}
}  // namespace

void MetaDataMsg::EncodeBody(Writer& w) const {
  MetaDataCore(*this, w);
  w.Var(auth);
}

Bytes MetaDataMsg::AuthContent() const {
  Writer w;
  MetaDataCore(*this, w);
  return w.Take();
}

bool MetaDataMsg::DecodeBody(Reader& r, MetaDataMsg* out) {
  out->target = r.U64();
  out->level = r.U32();
  out->index = r.U64();
  uint32_t n = 0;
  if (!ReadCount(r, &n)) {
    return false;
  }
  out->parts.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    out->parts[i].index = r.U64();
    out->parts[i].lm = r.U64();
    if (!ReadDigest(r, &out->parts[i].d)) {
      return false;
    }
  }
  out->extra = r.Var();
  out->replica = r.U32();
  out->nonce = r.U64();
  out->auth = r.Var();
  return r.ok();
}

void DataMsg::EncodeBody(Writer& w) const {
  w.U64(index);
  w.U64(lm);
  w.Var(value);
}

bool DataMsg::DecodeBody(Reader& r, DataMsg* out) {
  out->index = r.U64();
  out->lm = r.U64();
  out->value = r.Var();
  return r.ok();
}

// --- Batch fetch --------------------------------------------------------------------------------

void BatchFetchMsg::EncodeBody(Writer& w) const {
  WriteDigest(w, batch_digest);
  w.U32(replica);
  w.Var(auth);
}

Bytes BatchFetchMsg::AuthContent() const {
  Writer w;
  WriteDigest(w, batch_digest);
  w.U32(replica);
  return w.Take();
}

bool BatchFetchMsg::DecodeBody(Reader& r, BatchFetchMsg* out) {
  if (!ReadDigest(r, &out->batch_digest)) {
    return false;
  }
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
}

void BatchReplyMsg::EncodeBody(Writer& w) const {
  payload.Encode(w);
  w.U32(replica);
  w.Var(auth);
}

Bytes BatchReplyMsg::AuthContent() const {
  // Self-certifying: the fetcher checks the payload against the digest it asked for.
  Writer w;
  w.U32(replica);
  return w.Take();
}

bool BatchReplyMsg::DecodeBody(Reader& r, BatchReplyMsg* out) {
  if (!BatchPayload::Decode(r, &out->payload)) {
    return false;
  }
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
}

// --- Key management -----------------------------------------------------------------------------

namespace {
void NewKeyCore(const NewKeyMsg& m, Writer& w) {
  w.U32(m.replica);
  w.U64(m.epoch);
  w.U64(m.counter);
}
}  // namespace

void NewKeyMsg::EncodeBody(Writer& w) const {
  NewKeyCore(*this, w);
  w.Var(auth);
}

Bytes NewKeyMsg::AuthContent() const {
  Writer w;
  NewKeyCore(*this, w);
  return w.Take();
}

bool NewKeyMsg::DecodeBody(Reader& r, NewKeyMsg* out) {
  out->replica = r.U32();
  out->epoch = r.U64();
  out->counter = r.U64();
  out->auth = r.Var();
  return r.ok();
}

void QueryStableMsg::EncodeBody(Writer& w) const {
  w.U32(replica);
  w.U64(nonce);
  w.Var(auth);
}

Bytes QueryStableMsg::AuthContent() const {
  Writer w;
  w.U32(replica);
  w.U64(nonce);
  return w.Take();
}

bool QueryStableMsg::DecodeBody(Reader& r, QueryStableMsg* out) {
  out->replica = r.U32();
  out->nonce = r.U64();
  out->auth = r.Var();
  return r.ok();
}

namespace {
void ReplyStableCore(const ReplyStableMsg& m, Writer& w) {
  w.U64(m.last_checkpoint);
  w.U64(m.last_prepared);
  w.U64(m.nonce);
  w.U32(m.replica);
}
}  // namespace

void ReplyStableMsg::EncodeBody(Writer& w) const {
  ReplyStableCore(*this, w);
  w.Var(auth);
}

Bytes ReplyStableMsg::AuthContent() const {
  Writer w;
  ReplyStableCore(*this, w);
  return w.Take();
}

bool ReplyStableMsg::DecodeBody(Reader& r, ReplyStableMsg* out) {
  out->last_checkpoint = r.U64();
  out->last_prepared = r.U64();
  out->nonce = r.U64();
  out->replica = r.U32();
  out->auth = r.Var();
  return r.ok();
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
  std::visit([&w](const auto& msg) { msg.EncodeBody(w); }, m);
}

Bytes EncodeMessage(const Message& m) {
  // Covers a batched pre-prepare with a few inline requests in one allocation; larger
  // messages (new-view, state-transfer data) fall back to doubling growth.
  Writer w(512);
  EncodeMessageTo(w, m);
  return w.Take();
}

std::optional<Message> DecodeMessage(ByteView wire) {
  Reader r(wire);
  uint8_t tag = r.U8();
  if (!r.ok()) {
    return std::nullopt;
  }

  auto finish = [&r](auto msg, bool ok) -> std::optional<Message> {
    if (!ok || !r.ok() || !r.AtEnd()) {
      return std::nullopt;
    }
    return Message(std::move(msg));
  };

  switch (static_cast<MsgType>(tag)) {
    case MsgType::kRequest: {
      RequestMsg m;
      return finish(m, RequestMsg::DecodeBody(r, &m));
    }
    case MsgType::kReply: {
      ReplyMsg m;
      return finish(m, ReplyMsg::DecodeBody(r, &m));
    }
    case MsgType::kPrePrepare: {
      PrePrepareMsg m;
      return finish(m, PrePrepareMsg::DecodeBody(r, &m));
    }
    case MsgType::kPrepare: {
      PrepareMsg m;
      return finish(m, PrepareMsg::DecodeBody(r, &m));
    }
    case MsgType::kCommit: {
      CommitMsg m;
      return finish(m, CommitMsg::DecodeBody(r, &m));
    }
    case MsgType::kCheckpoint: {
      CheckpointMsg m;
      return finish(m, CheckpointMsg::DecodeBody(r, &m));
    }
    case MsgType::kViewChange: {
      ViewChangeMsg m;
      return finish(m, ViewChangeMsg::DecodeBody(r, &m));
    }
    case MsgType::kViewChangeAck: {
      ViewChangeAckMsg m;
      return finish(m, ViewChangeAckMsg::DecodeBody(r, &m));
    }
    case MsgType::kNewView: {
      NewViewMsg m;
      return finish(m, NewViewMsg::DecodeBody(r, &m));
    }
    case MsgType::kStatus: {
      StatusMsg m;
      return finish(m, StatusMsg::DecodeBody(r, &m));
    }
    case MsgType::kFetch: {
      FetchMsg m;
      return finish(m, FetchMsg::DecodeBody(r, &m));
    }
    case MsgType::kMetaData: {
      MetaDataMsg m;
      return finish(m, MetaDataMsg::DecodeBody(r, &m));
    }
    case MsgType::kData: {
      DataMsg m;
      return finish(m, DataMsg::DecodeBody(r, &m));
    }
    case MsgType::kBatchFetch: {
      BatchFetchMsg m;
      return finish(m, BatchFetchMsg::DecodeBody(r, &m));
    }
    case MsgType::kBatchReply: {
      BatchReplyMsg m;
      return finish(m, BatchReplyMsg::DecodeBody(r, &m));
    }
    case MsgType::kNewKey: {
      NewKeyMsg m;
      return finish(m, NewKeyMsg::DecodeBody(r, &m));
    }
    case MsgType::kQueryStable: {
      QueryStableMsg m;
      return finish(m, QueryStableMsg::DecodeBody(r, &m));
    }
    case MsgType::kReplyStable: {
      ReplyStableMsg m;
      return finish(m, ReplyStableMsg::DecodeBody(r, &m));
    }
    default:
      return std::nullopt;
  }
}

}  // namespace bft
