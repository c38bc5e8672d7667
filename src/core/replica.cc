#include "src/core/replica.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

namespace bft {

namespace {
// Section 5.1 constants. Every replica sends results of at most this many bytes in full;
// for larger ones only the designated replier does, and the others send the digest.
constexpr size_t kDigestReplyThreshold = 32;
// Cap on the inlined request bytes one pre-prepare carries.
constexpr size_t kMaxBatchBytes = 8192;
// Sliding window of protocol instances the primary keeps open at once (Section 5.1.4).
constexpr SeqNo kBatchWindow = 4;

// Recovery requests carry this prefix in their op field and are handled by the replica layer
// rather than the service (Section 4.3.2).
constexpr char kRecoveryTag[] = "\x7f_BFT_RECOVERY";

bool IsRecoveryOp(ByteView op) {
  constexpr size_t kLen = sizeof(kRecoveryTag) - 1;
  return op.size() >= kLen && std::memcmp(op.data(), kRecoveryTag, kLen) == 0;
}
}  // namespace

Replica::Replica(std::unique_ptr<Endpoint> endpoint, const ReplicaConfig* config,
                 const PerfModel* model, PublicKeyDirectory* directory,
                 std::unique_ptr<Service> service, uint64_t seed)
    : ep_(std::move(endpoint)),
      config_(config),
      model_(model),
      service_(std::move(service)),
      auth_(ep_->id(), config, model, directory, directory->Generate(ep_->id(), seed)),
      state_(config, model),
      rng_(seed ^ (ep_->id() * 0x9e3779b97f4a7c15ULL)),
      vc_timeout_(config->view_change_timeout) {
  for (int i = 0; i < config_->n; ++i) {
    if (config_->ReplicaId(i) != id()) {
      other_replicas_.push_back(config_->ReplicaId(i));
    }
  }
  InstallObservability(&MetricsRegistry::Process(), nullptr);
  ep_->SetHandler([this](MsgBuffer message) { OnMessage(std::move(message)); });
  service_->Initialize(&state_);
  state_.Baseline(EncodeLastReplies());
}

void Replica::InstallObservability(MetricsRegistry* registry, RequestTracer* tracer) {
  tracer_ = tracer;
  std::string node = "node=\"" + std::to_string(id()) + "\"";
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    std::string labels = node + ",type=\"" + MsgTypeName(static_cast<MsgType>(t)) + "\"";
    obs_.msg_in[t] = registry->GetCounter("bft_messages_in_total", labels);
    obs_.msg_out[t] = registry->GetCounter("bft_messages_out_total", labels);
  }
  obs_.bytes_in = registry->GetCounter("bft_bytes_in_total", node);
  obs_.bytes_out = registry->GetCounter("bft_bytes_out_total", node);
  obs_.dropped_undecodable = registry->GetCounter("bft_messages_undecodable_total", node);
  obs_.dropped_duplicate = registry->GetCounter("bft_messages_duplicate_total", node);
  obs_.request_replays = registry->GetCounter("bft_request_replays_total", node);
  obs_.auth_rejected = registry->GetCounter("bft_auth_rejected_total", node);
  obs_.view_changes = registry->GetCounter("bft_view_changes_started_total", node);
  obs_.new_views = registry->GetCounter("bft_new_views_total", node);
  obs_.checkpoints = registry->GetCounter("bft_checkpoints_total", node);
  obs_.stable_checkpoints = registry->GetCounter("bft_stable_checkpoints_total", node);
  obs_.state_transfers = registry->GetCounter("bft_state_transfers_total", node);
  obs_.state_fetches = registry->GetCounter("bft_state_fetches_total", node);
  obs_.state_pages = registry->GetCounter("bft_state_pages_fetched_total", node);
  obs_.batches_executed = registry->GetCounter("bft_batches_executed_total", node);
  obs_.requests_executed = registry->GetCounter("bft_requests_executed_total", node);
  obs_.rollbacks = registry->GetCounter("bft_rollbacks_total", node);
  obs_.view = registry->GetGauge("bft_view", node);
  obs_.last_executed = registry->GetGauge("bft_last_executed", node);
  obs_.batch_size = registry->GetHistogram("bft_batch_size", node);
  // MAC-cache effectiveness, read from the AuthContext at export time. Probes capture
  // `this`, so they are only registered into harness-owned registries whose exports happen
  // while the replica is alive — never into the process default, which outlives everything.
  if (registry != &MetricsRegistry::Process()) {
    registry->RegisterProbe("bft_mac_cache_hits_total", node,
                            [this]() { return auth_.mac_cache_hits(); });
    registry->RegisterProbe("bft_mac_cache_misses_total", node,
                            [this]() { return auth_.mac_cache_misses(); });
  }
}

void Replica::TraceBatch(TracePhase phase, const Digest& d) {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    return;
  }
  auto it = batch_store_.find(d);
  if (it == batch_store_.end()) {
    return;
  }
  SimTime now = Now();
  for (const RequestMsg& req : it->second.requests) {
    if (tracer_->Sampled(req.client, req.timestamp)) {
      tracer_->Stamp(phase, req.client, req.timestamp, now);
    }
  }
}

// Quiesce the endpoint before any member dies: a real-clock runtime's loop thread may
// otherwise still be dispatching into this object while it is being torn down.
Replica::~Replica() { ep_->Close(); }

void Replica::Start() {
  status_timer_ = SetTimer(config_->status_interval + rng_.Below(kMillisecond),
                           [this]() { OnStatusTimer(); });
  if (config_->proactive_recovery) {
    // Stagger watchdogs so no more than f replicas recover at once (Section 4.3.3).
    SimTime index = static_cast<SimTime>(config_->ReplicaIndex(id()));
    SimTime offset = config_->watchdog_period / config_->n * index;
    SetTimer(config_->watchdog_period + offset, [this]() { OnWatchdog(); });
    // Periodic session-key refreshment (Section 4.3.1).
    SetTimer(config_->key_refresh_period + index * kMillisecond, [this]() { OnKeyRefresh(); });
  }
}

bool Replica::VerifyFromReplica(NodeId sender, ByteView content, ByteView auth) {
  if (!config_->IsReplicaMember(sender) || sender == id()) {
    return false;
  }
  if (!auth_.VerifyAuthMulticast(sender, content, auth, &cpu())) {
    ++stats_.rejected_auth;
    obs_.auth_rejected->Inc();
    return false;
  }
  return true;
}

bool Replica::VerifyFromAny(NodeId sender, ByteView content, ByteView auth) {
  if (sender == id()) {
    return false;
  }
  if (!auth_.VerifyAuthMulticast(sender, content, auth, &cpu())) {
    ++stats_.rejected_auth;
    obs_.auth_rejected->Inc();
    return false;
  }
  return true;
}

void Replica::OnMessage(MsgBuffer raw) {
  if (crashed_) {
    return;
  }
  obs_.bytes_in->Inc(raw.size());
  // Request ops decode as slices of `raw`: every later copy shares the one body.
  std::optional<Message> decoded = DecodeMessage(raw);
  if (!decoded.has_value()) {
    obs_.dropped_undecodable->Inc();
    return;
  }
  obs_.msg_in[static_cast<size_t>(TypeOf(*decoded))]->Inc();
  // During recovery's estimation phase the replica handles only new-key, query-stable, and
  // status messages (Section 4.3.2).
  if (recovery_estimating_) {
    MsgType t = TypeOf(*decoded);
    if (t != MsgType::kNewKey && t != MsgType::kQueryStable && t != MsgType::kReplyStable &&
        t != MsgType::kStatus) {
      return;
    }
  }
  std::visit([this](auto&& m) { Handle(std::move(m)); }, std::move(*decoded));
}

// --- Requests & batching --------------------------------------------------------------------

void Replica::Handle(RequestMsg m) {
  if (!IsClientId(m.client) && !config_->IsReplicaMember(m.client)) {
    return;
  }
  // The authenticator covers the header and this digest, so the op is hashed exactly once.
  Digest d = m.RequestDigest();
  cpu().Charge(model_->DigestCost(m.op.size()));
  if (!auth_.VerifyAuthMulticast(m.client, m.AuthContent(d), m.auth, &cpu())) {
    ++stats_.rejected_auth;
    obs_.auth_rejected->Inc();
    return;
  }

  // Exactly-once semantics: replay the cached reply for the client's last executed request,
  // drop anything older (Section 2.3.3 / DoS defense in 5.5).
  auto lit = last_reply_.find(m.client);
  if (lit != last_reply_.end()) {
    if (m.timestamp < lit->second.timestamp) {
      obs_.dropped_duplicate->Inc();
      return;
    }
    if (m.timestamp == lit->second.timestamp) {
      obs_.request_replays->Inc();
      ReplyMsg cached = lit->second;
      cached.view = view_;
      cached.replica = id();
      cached.tentative = false;  // anything cached re-committed long ago
      cached.has_result = true;
      AuthAndSend(m.client, std::move(cached));
      return;
    }
  }

  if (m.read_only && config_->read_only_optimization && !IsRecoveryOp(m.op) &&
      service_->IsReadOnly(m.op)) {
    // Read-only optimization (Section 5.1.3): execute immediately, but only against state with
    // no uncommitted tentative writes.
    if (last_tentative_exec_ == last_exec_) {
      ExecuteReadOnly(m);
    } else {
      ro_queue_.push_back(std::move(m));
    }
    return;
  }

  bool multicast = config_->ClientMulticasts(m.read_only, m.op.size());
  auto [it, is_new] = requests_.try_emplace(d, std::move(m));
  const RequestMsg& req = it->second;

  if (config_->PrimaryOf(view_) == id()) {
    if (is_new) {
      // FIFO fairness: keep only the highest-timestamp request per client in the queue.
      auto qit = queued_timestamp_.find(req.client);
      if (qit == queued_timestamp_.end() || req.timestamp > qit->second) {
        queued_timestamp_[req.client] = req.timestamp;
        request_queue_.push_back(d);
      }
    }
    // Reads no `req` after this call: CollectGarbage may erase it from requests_.
    TrySendPrePrepare();
  } else if (is_new && multicast) {
    // Backup, first copy of a request the client multicast to every replica (a read-only or
    // separately transmitted one, Section 5.1.5): the primary got its own copy, so keep the
    // body for the pre-prepare that names its digest and do nothing more. A repeat is the
    // client's retransmission and takes the branch below.
  } else {
    // Backup, a request the client sent to the primary alone (it reaches a backup only when
    // the client retransmits to everyone) or a repeat of a multicast one: the client has not
    // heard back, so relay it to the primary and start the view-change timer. If the primary
    // still does not order it, a view change replaces the primary (OSDI'99 Section 4.1,
    // thesis Section 2.3.5).
    if (is_new || multicast) {
      obs_.msg_out[static_cast<size_t>(MsgType::kRequest)]->Inc();
      SendTo(config_->PrimaryOf(view_), EncodeTyped(req));
    }
    StartViewChangeTimer();
  }
  ProcessPendingPrePrepares();
}

void Replica::TrySendPrePrepare() {
  if (config_->PrimaryOf(view_) != id() || !view_active_ || mute_ || crashed_) {
    return;
  }
  while (!request_queue_.empty()) {
    if (seqno_ >= low_ + config_->log_size) {
      return;  // log full; wait for a checkpoint to become stable
    }
    if (seqno_ - last_exec_ >= kBatchWindow) {
      return;  // sliding-window limit on parallel protocol instances
    }

    PrePrepareMsg pp;
    pp.view = view_;
    pp.seq = seqno_ + 1;
    pp.ndet = service_->ChooseNonDet(pp.seq, Now());

    BatchPayload payload;
    payload.ndet = pp.ndet;
    size_t batch_bytes = 0;
    size_t max_requests = config_->batching ? config_->max_batch_requests : 1;
    while (!request_queue_.empty() && payload.requests.size() < max_requests &&
           batch_bytes < kMaxBatchBytes) {
      Digest d = request_queue_.front();
      auto rit = requests_.find(d);
      if (rit == requests_.end()) {
        request_queue_.pop_front();
        continue;
      }
      const RequestMsg& req = rit->second;
      auto lit = last_reply_.find(req.client);
      if (lit != last_reply_.end() && req.timestamp <= lit->second.timestamp) {
        request_queue_.pop_front();  // already executed
        continue;
      }
      // Only inlined bytes count toward the pre-prepare size cap; separately transmitted
      // requests contribute just a digest (Fig 6-1).
      bool inline_req = req.op.size() <= config_->separate_transmission_threshold;
      size_t wire_cost = inline_req ? req.op.size() : Digest::kSize;
      if (!payload.requests.empty() && batch_bytes + wire_cost > kMaxBatchBytes) {
        break;
      }
      request_queue_.pop_front();
      batch_bytes += wire_cost;
      if (inline_req) {
        pp.inline_requests.push_back(req);
      } else {
        pp.separate_digests.push_back(d);
      }
      payload.requests.push_back(req);
    }
    if (payload.requests.empty()) {
      return;
    }

    ++seqno_;
    Digest d = pp.BatchDigest();
    batch_store_[d] = std::move(payload);
    AuthAndMulticast(pp, pp.AuthContent(d));
    SeqNo n = pp.seq;
    LogEntry& entry = Entry(n);
    entry.pre_prepare = std::move(pp);
    entry.d = d;
    entry.pp_view = view_;
    TraceBatch(TracePhase::kPrePrepare, d);
    TryPrepared(n);  // a lone pre-prepare can complete the certificate when f == 0
  }
}

bool Replica::BatchRequestsAvailable(const PrePrepareMsg& pp) const {
  for (const Digest& d : pp.separate_digests) {
    if (requests_.count(d) == 0) {
      return false;
    }
  }
  return true;
}

void Replica::Handle(PrePrepareMsg m) {
  if (m.view != view_ || !view_active_ || config_->PrimaryOf(m.view) == id()) {
    return;
  }
  if (!InWatermarks(m.seq)) {
    return;
  }
  // The batch digest, computed once: the MAC covers it, and the log records it.
  Digest d = m.BatchDigest();
  if (!VerifyFromReplica(config_->PrimaryOf(m.view), m.AuthContent(d), m.auth)) {
    return;
  }
  if (!BatchRequestsAvailable(m)) {
    // Separate-transmission requests not yet received: buffer and wait (Section 5.1.5).
    pending_pps_.emplace_back(std::move(m), d);
    return;
  }
  AcceptPrePrepare(m, d);
}

void Replica::ProcessPendingPrePrepares() {
  for (size_t i = 0; i < pending_pps_.size();) {
    const PrePrepareMsg& pending = pending_pps_[i].first;
    if (pending.view != view_ || !InWatermarks(pending.seq)) {
      pending_pps_.erase(pending_pps_.begin() + static_cast<long>(i));
      continue;
    }
    if (BatchRequestsAvailable(pending)) {
      auto [pp, d] = std::move(pending_pps_[i]);
      pending_pps_.erase(pending_pps_.begin() + static_cast<long>(i));
      AcceptPrePrepare(pp, d);
    } else {
      ++i;
    }
  }
}

Replica::Votes& Replica::VotesOf(LogEntry& entry, NodeId replica) {
  if (entry.votes.empty()) {
    entry.votes.resize(static_cast<size_t>(config_->n));
  }
  return entry.votes[static_cast<size_t>(config_->ReplicaIndex(replica))];
}

void Replica::RecordPeerVote(Vote& slot, View v, const Digest& d) {
  if (slot.present) {
    obs_.dropped_duplicate->Inc();  // a peer's first vote stands
    return;
  }
  slot = Vote{true, v, d};
}

int Replica::CountVotes(const LogEntry& entry, Vote Votes::*kind, const Digest& d,
                        std::optional<View> v) const {
  int matching = 0;
  for (const Votes& votes : entry.votes) {
    const Vote& vote = votes.*kind;
    if (vote.present && vote.d == d && (!v.has_value() || vote.view == *v)) {
      ++matching;
    }
  }
  return matching;
}

void Replica::SendOwnPrepare(LogEntry& entry, View v, SeqNo n, const Digest& d) {
  PrepareMsg prep;
  prep.view = v;
  prep.seq = n;
  prep.batch_digest = d;
  prep.replica = id();
  AuthAndMulticast(prep);
  VotesOf(entry, id()).prepare = Vote{true, v, d};
  entry.own_prepare = std::move(prep);
}

void Replica::AcceptPrePrepare(const PrePrepareMsg& pp, const Digest& d) {
  LogEntry& entry = Entry(pp.seq);
  if (entry.pre_prepare.has_value() && entry.pp_view == pp.view) {
    return;  // never accept two different pre-prepares for the same (view, seq)
  }

  // Request authentication (Section 3.2.2): a request in a pre-prepare is authentic if (1) its
  // MAC for this replica verifies, (2) f prepares carry the batch digest, or (3) a matching
  // authentic request was received directly from the client.
  for (const RequestMsg& req : pp.inline_requests) {
    Digest rd = req.RequestDigest();
    cpu().Charge(model_->DigestCost(req.op.size()));
    if (requests_.count(rd) != 0) {
      continue;  // condition 3
    }
    if (auth_.VerifyAuthMulticast(req.client, req.AuthContent(rd), req.auth, &cpu())) {
      requests_.emplace(rd, req);
      continue;  // condition 1
    }
    if (CountVotes(entry, &Votes::prepare, d) >= config_->f()) {
      requests_.emplace(rd, req);
      continue;  // condition 2
    }
    return;  // cannot authenticate the batch; do not pre-prepare it
  }

  if (!service_->CheckNonDet(pp.ndet, Now())) {
    return;  // deterministic rejection of a bad non-deterministic choice (Section 5.4)
  }

  // Reconstruct and store the batch payload for execution and view changes.
  BatchPayload payload;
  payload.ndet = pp.ndet;
  for (const RequestMsg& req : pp.inline_requests) {
    payload.requests.push_back(req);
  }
  for (const Digest& rd : pp.separate_digests) {
    payload.requests.push_back(requests_.at(rd));
  }
  batch_store_[d] = std::move(payload);

  entry.pre_prepare = pp;
  entry.d = d;
  entry.pp_view = pp.view;
  entry.sent_prepare = true;
  TraceBatch(TracePhase::kPrePrepare, d);
  SendOwnPrepare(entry, pp.view, pp.seq, d);
  TryPrepared(pp.seq);
}

void Replica::Handle(PrepareMsg m) {
  if (m.view != view_ || !InWatermarks(m.seq)) {
    return;
  }
  if (m.replica == config_->PrimaryOf(m.view)) {
    return;  // the primary's pre-prepare stands in for its prepare
  }
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  RecordPeerVote(VotesOf(Entry(m.seq), m.replica).prepare, m.view, m.batch_digest);
  TryPrepared(m.seq);
  ProcessPendingPrePrepares();  // a prepare can complete request-authentication condition 2
}

void Replica::TryPrepared(SeqNo n) {
  LogEntry& entry = Entry(n);
  if (entry.prepared || !entry.pre_prepare.has_value()) {
    return;
  }
  // Prepared certificate: the pre-prepare plus 2f prepares (own prepare included for backups).
  if (CountVotes(entry, &Votes::prepare, entry.d, entry.pp_view) < 2 * config_->f()) {
    return;
  }
  entry.prepared = true;
  last_prepared_seq_ = std::max(last_prepared_seq_, n);
  TraceBatch(TracePhase::kPrepared, entry.d);

  CommitMsg com;
  com.view = entry.pp_view;
  com.seq = n;
  com.batch_digest = entry.d;
  com.replica = id();
  AuthAndMulticast(com);
  VotesOf(entry, id()).commit = Vote{true, com.view, com.batch_digest};
  entry.own_commit = std::move(com);
  TryCommitted(n);
  TryExecute();
}

void Replica::Handle(CommitMsg m) {
  if (m.view != view_ || !InWatermarks(m.seq)) {
    return;
  }
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  RecordPeerVote(VotesOf(Entry(m.seq), m.replica).commit, m.view, m.batch_digest);
  TryCommitted(m.seq);
}

void Replica::TryCommitted(SeqNo n) {
  LogEntry& entry = Entry(n);
  if (entry.committed || !entry.prepared) {
    return;
  }
  if (CountVotes(entry, &Votes::commit, entry.d) < config_->quorum()) {
    return;
  }
  entry.committed = true;
  TraceBatch(TracePhase::kCommitted, entry.d);
  TryExecute();
}

// --- Execution ---------------------------------------------------------------------------------

bool Replica::HavePayload(const Digest& d) const {
  return d == NullBatchDigest() || batch_store_.count(d) != 0;
}

void Replica::TryExecute() {
  if (transfer_active_ && !transfer_checking_) {
    // A full state transfer is rewriting the state; executing against it would interleave two
    // different prefixes. Execution resumes from the transferred checkpoint.
    return;
  }
  bool progress = true;
  while (progress) {
    progress = false;

    // Promote tentatively executed batches whose commit certificates completed.
    while (true) {
      auto it = log_.find(last_exec_ + 1);
      if (it == log_.end() || !it->second.committed || !it->second.executed_tentative) {
        break;
      }
      it->second.executed_committed = true;
      ++last_exec_;
      OnCheckpointCommitted(last_exec_);
      progress = true;
    }

    // Execute the next batch: committed batches always; prepared ones tentatively, provided all
    // earlier requests committed (Section 5.1.2).
    SeqNo n = last_tentative_exec_ + 1;
    auto it = log_.find(n);
    if (it == log_.end() || !it->second.pre_prepare.has_value()) {
      continue;
    }
    LogEntry& entry = it->second;
    if (entry.executed_tentative || !HavePayload(entry.d)) {
      continue;
    }
    if (entry.committed) {
      ExecuteBatch(n, /*tentative=*/false);
      entry.executed_tentative = true;
      entry.executed_committed = true;
      last_tentative_exec_ = n;
      last_exec_ = n;
      MaybeTakeCheckpoint(n);
      OnCheckpointCommitted(n);
      progress = true;
    } else if (entry.prepared && config_->tentative_execution && last_exec_ == n - 1) {
      ExecuteBatch(n, /*tentative=*/true);
      entry.executed_tentative = true;
      last_tentative_exec_ = n;
      MaybeTakeCheckpoint(n);
      progress = true;
    }
  }

  if (last_tentative_exec_ == last_exec_) {
    DrainReadOnlyQueue();
  }
  if (config_->PrimaryOf(view_) == id()) {
    TrySendPrePrepare();
  }

  // Liveness bookkeeping (Section 2.3.5): stop the timer when nothing is waiting to execute;
  // when requests executed but others still wait, restart it — the timer bounds the time to
  // execute the *next* request, not the drain time of a continuously loaded queue.
  uint64_t executed_now = stats_.batches_executed;
  bool made_progress = executed_now != batches_at_timer_start_;
  bool waiting = false;
  for (const auto& [d, req] : requests_) {
    auto lit = last_reply_.find(req.client);
    if (lit == last_reply_.end() || req.timestamp > lit->second.timestamp) {
      waiting = true;
      break;
    }
  }
  if (!waiting) {
    StopViewChangeTimer();
  } else if (made_progress && vc_timer_running_) {
    StopViewChangeTimer();
    StartViewChangeTimer();
  }
  batches_at_timer_start_ = executed_now;
  obs_.last_executed->Set(static_cast<int64_t>(last_exec_));
}

void Replica::ExecuteBatch(SeqNo n, bool tentative) {
  LogEntry& entry = Entry(n);
  ++stats_.batches_executed;
  obs_.batches_executed->Inc();
  if (entry.is_null || entry.d == NullBatchDigest()) {
    return;  // null request: no-op (Section 2.3.5)
  }
  const BatchPayload& payload = batch_store_.at(entry.d);
  // Recorded at execution (not at pre-prepare send) so backups report it too and a
  // re-executed batch after rollback counts each pass it actually ran.
  obs_.batch_size->Record(payload.requests.size());
  for (const RequestMsg& req : payload.requests) {
    auto lit = last_reply_.find(req.client);
    if (lit != last_reply_.end() && req.timestamp <= lit->second.timestamp) {
      continue;  // executed in a previous view; reply already cached
    }

    Bytes result;
    if (IsRecoveryOp(req.op)) {
      // Recovery request (Section 4.3.2): the result is the sequence number it executed at;
      // every other replica refreshes its session keys.
      Writer w;
      w.U64(n);
      result = w.Take();
      if (req.client != id()) {
        SendNewKey();
      }
    } else {
      result = RunOp(req, payload.ndet, /*read_only=*/false);
    }
    ++stats_.requests_executed;
    obs_.requests_executed->Inc();
    TraceRequest(TracePhase::kExecuted, req.client, req.timestamp);
    SendReply(req, std::move(result), tentative, /*cache=*/true);
  }
}

Bytes Replica::RunOp(const RequestMsg& req, ByteView ndet, bool read_only) {
  if (service_->IsAdminOp(req.op) && !IsAdminClient(req.client)) {
    // Admin ACL (migration/rebalance control plane): the op is answered like any other — so
    // the client gets a certified, clean error — but never executes. Pure function of client
    // id + request: every correct replica denies identically. No current service marks an
    // admin op read-only, but the read-only path checks too: the invariant must not depend
    // on that coincidence.
    ByteView denied = Service::AccessDeniedResult();
    return Bytes(denied.begin(), denied.end());
  }
  cpu().Charge(service_->ExecutionCost(req.op));
  return service_->Execute(req.client, req.op, ndet, read_only);
}

void Replica::SendReply(const RequestMsg& req, Bytes result, bool tentative, bool cache) {
  ReplyMsg reply;
  reply.view = view_;
  reply.timestamp = req.timestamp;
  reply.client = req.client;
  reply.replica = id();
  reply.tentative = tentative;
  reply.result_digest = ComputeDigest(result);
  cpu().Charge(model_->DigestCost(result.size()));
  bool send_full = !config_->digest_replies ||
                   result.size() <= kDigestReplyThreshold ||
                   req.designated_replier == id() || req.designated_replier == kEveryone;
  reply.result = std::move(result);
  reply.has_result = true;

  if (cache) {
    // Cache the full reply for retransmission (the copy reuses the client's previous cached
    // result buffer when it is large enough).
    last_reply_[req.client] = reply;
  }
  // Digest-only unless designated.
  if (!send_full) {
    reply.has_result = false;
    reply.result.clear();
  }
  AuthAndSend(req.client, std::move(reply));
}

void Replica::ExecuteReadOnly(const RequestMsg& req) {
  SendReply(req, RunOp(req, {}, /*read_only=*/true), /*tentative=*/false, /*cache=*/false);
}

void Replica::DrainReadOnlyQueue() {
  while (!ro_queue_.empty() && last_tentative_exec_ == last_exec_) {
    RequestMsg req = std::move(ro_queue_.front());
    ro_queue_.pop_front();
    ExecuteReadOnly(req);
  }
}

// --- Checkpoints & garbage collection ------------------------------------------------------------

Bytes Replica::EncodeLastReplies() const {
  Writer w;
  w.U32(static_cast<uint32_t>(last_reply_.size()));
  for (const auto& [client, reply] : last_reply_) {
    // Normalize replica-local fields so every correct replica produces an identical snapshot
    // (checkpoint digests must match across the group).
    ReplyMsg canonical = reply;
    canonical.view = 0;
    canonical.replica = 0;
    canonical.tentative = false;
    canonical.auth.clear();
    WireWriter{w}(canonical);
  }
  return w.Take();
}

void Replica::DecodeLastReplies(ByteView raw) {
  last_reply_.clear();
  Reader r(raw);
  uint32_t count = r.U32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    ReplyMsg reply;
    WireReader{r}(reply);
    if (!r.ok()) {
      return;
    }
    last_reply_[reply.client] = reply;
  }
}

void Replica::MaybeTakeCheckpoint(SeqNo n) {
  if (n % config_->checkpoint_period != 0) {
    return;
  }
  Digest d = state_.TakeCheckpoint(n, EncodeLastReplies(), &cpu());
  pending_checkpoint_digest_[n] = d;
  ++stats_.checkpoints_taken;
  obs_.checkpoints->Inc();
}

void Replica::OnCheckpointCommitted(SeqNo n) {
  // Checkpoint messages are only sent once the checkpoint batch commits (Section 5.1.2).
  auto it = pending_checkpoint_digest_.find(n);
  if (it == pending_checkpoint_digest_.end()) {
    return;
  }
  CheckpointMsg cp;
  cp.seq = n;
  cp.state_digest = it->second;
  cp.replica = id();
  AuthAndMulticast(cp);
  checkpoint_msgs_[n][id()] = cp;
  pending_checkpoint_digest_.erase(it);
  TryStable(n);
}

void Replica::Handle(CheckpointMsg m) {
  if (m.seq <= low_) {
    return;
  }
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  checkpoint_msgs_[m.seq][m.replica] = m;
  TryStable(m.seq);
}

void Replica::TryStable(SeqNo n) {
  auto it = checkpoint_msgs_.find(n);
  if (it == checkpoint_msgs_.end()) {
    return;
  }
  // The stable certificate is a quorum certificate in BFT (Section 3.2.3), so view changes can
  // reconstruct a weak certificate for it.
  std::map<Digest, int> counts;
  for (const auto& [r, cp] : it->second) {
    ++counts[cp.state_digest];
  }
  for (const auto& [d, count] : counts) {
    if (count < config_->quorum()) {
      continue;
    }
    if (state_.HasCheckpoint(n) && state_.CheckpointDigest(n) == d) {
      // The certificate proves every request up to n committed globally, and our state digest
      // matches the quorum's, so any still-tentative prefix up to n is final.
      if (n > last_exec_) {
        for (auto it2 = log_.begin(); it2 != log_.end() && it2->first <= n; ++it2) {
          it2->second.committed = true;
          it2->second.executed_committed = it2->second.executed_tentative;
        }
        last_exec_ = n;
        last_tentative_exec_ = std::max(last_tentative_exec_, n);
        last_prepared_seq_ = std::max(last_prepared_seq_, n);
      }
      // Send our own (possibly still pending) checkpoint message before collecting.
      auto pit = pending_checkpoint_digest_.find(n);
      if (pit != pending_checkpoint_digest_.end()) {
        CheckpointMsg cp;
        cp.seq = n;
        cp.state_digest = pit->second;
        cp.replica = id();
        AuthAndMulticast(cp);
        pending_checkpoint_digest_.erase(pit);
      }
      if (n > low_) {
        CollectGarbage(n);
      }
      TryExecute();
    } else if (n > last_tentative_exec_) {
      // We are behind a stable checkpoint. Peers garbage-collect their logs up to n the moment
      // it becomes stable, so protocol messages for the gap may be gone — state transfer is
      // the catch-up path (Section 5.3.2). A short grace period avoids a useless transfer
      // when our own execution is just about to reach n.
      if (n > observed_stable_seq_) {
        observed_stable_seq_ = n;
        observed_stable_digest_ = d;
      }
      if (n >= low_ + config_->log_size) {
        MaybeStartStateTransfer(n, d);  // past our log: transfer unconditionally
      } else if (!transfer_grace_pending_) {
        transfer_grace_pending_ = true;
        SetTimer(2 * config_->status_interval, [this]() {
          transfer_grace_pending_ = false;
          if (observed_stable_seq_ > last_exec_ &&
              !state_.HasCheckpoint(observed_stable_seq_)) {
            MaybeStartStateTransfer(observed_stable_seq_, observed_stable_digest_);
          }
        });
      }
    }
    if (recovering_ && recovery_point_known_ && n >= recovery_point_ &&
        state_.HasCheckpoint(n) && state_.CheckpointDigest(n) == d) {
      CheckRecoveryComplete();
    }
    return;
  }
}

void Replica::CollectGarbage(SeqNo new_low) {
  low_ = new_low;
  ++stats_.stable_checkpoints;
  obs_.stable_checkpoints->Inc();
  log_.erase(log_.begin(), log_.lower_bound(new_low + 1));
  checkpoint_msgs_.erase(checkpoint_msgs_.begin(), checkpoint_msgs_.lower_bound(new_low));
  pending_checkpoint_digest_.erase(pending_checkpoint_digest_.begin(),
                                   pending_checkpoint_digest_.lower_bound(new_low));
  state_.DiscardCheckpointsBelow(new_low);
  pq_.pset.erase(pq_.pset.begin(), pq_.pset.upper_bound(new_low));
  pq_.qset.erase(pq_.qset.begin(), pq_.qset.upper_bound(new_low));

  // Drop batch payloads no longer referenced by the log, and executed requests.
  std::set<Digest> keep = wanted_payloads_;
  for (const auto& [seq, entry] : log_) {
    keep.insert(entry.d);
  }
  for (auto it = batch_store_.begin(); it != batch_store_.end();) {
    if (keep.count(it->first) == 0) {
      it = batch_store_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = requests_.begin(); it != requests_.end();) {
    auto lit = last_reply_.find(it->second.client);
    if (lit != last_reply_.end() && it->second.timestamp <= lit->second.timestamp) {
      it = requests_.erase(it);
    } else {
      ++it;
    }
  }
  if (config_->PrimaryOf(view_) == id()) {
    TrySendPrePrepare();  // the advancing window may unblock queued batches
  }
}

// --- View changes ---------------------------------------------------------------------------------

void Replica::StartViewChangeTimer() {
  if (vc_timer_running_ || crashed_) {
    return;
  }
  vc_timer_running_ = true;
  vc_timer_ = SetTimer(vc_timeout_, [this]() { OnViewChangeTimeout(); });
}

void Replica::StopViewChangeTimer() {
  if (!vc_timer_running_) {
    return;
  }
  CancelTimer(vc_timer_);
  vc_timer_running_ = false;
}

void Replica::OnViewChangeTimeout() {
  vc_timer_running_ = false;
  // Exponential backoff: wait longer before the next view change (Section 2.3.5, liveness).
  vc_timeout_ = std::min(vc_timeout_ * 2, config_->max_view_change_timeout);
  StartViewChange(view_ + 1);
}

void Replica::ForceViewChange() { StartViewChange(view_ + 1); }

std::vector<SeqObservation> Replica::CollectLogObservations(View leaving_view) const {
  std::vector<SeqObservation> out;
  for (const auto& [seq, entry] : log_) {
    if (!entry.pre_prepare.has_value() && !entry.is_null) {
      continue;
    }
    SeqObservation obs;
    obs.seq = seq;
    obs.d = entry.d;
    obs.view = entry.pp_view;
    obs.pre_prepared = entry.sent_prepare || config_->PrimaryOf(entry.pp_view) == id();
    obs.prepared = entry.prepared;
    if (obs.view == leaving_view && (obs.pre_prepared || obs.prepared)) {
      out.push_back(obs);
    }
  }
  return out;
}

void Replica::StartViewChange(View new_view) {
  if (new_view <= view_ || crashed_) {
    return;
  }
  // Fold the log of the view being left into PSet/QSet (Fig 3-2) before moving on.
  ComputePq(CollectLogObservations(view_), &pq_);
  view_ = new_view;
  view_active_ = false;
  ++stats_.view_changes_started;
  obs_.view_changes->Inc();
  StopViewChangeTimer();
  SendViewChange();
  // Liveness rule 1 (Section 2.3.5): the timer for "this view change failed, move on" starts
  // only once 2f+1 view-change messages for the view have arrived — otherwise replicas that
  // got ahead would keep outrunning the laggards forever.
  MaybeStartPendingTimer();
}

void Replica::MaybeStartPendingTimer() {
  if (view_active_ || vc_timer_running_ || crashed_) {
    return;
  }
  if (static_cast<int>(vc_msgs_[view_].size()) < config_->quorum()) {
    return;
  }
  vc_timer_running_ = true;
  vc_timer_ = SetTimer(vc_timeout_, [this]() {
    vc_timer_running_ = false;
    if (!view_active_) {
      vc_timeout_ = std::min(vc_timeout_ * 2, config_->max_view_change_timeout);
      StartViewChange(view_ + 1);
    }
  });
}

void Replica::SendViewChange() {
  ViewChangeMsg vc;
  vc.view = view_;
  vc.h = low_;
  for (SeqNo s = state_.OldestCheckpoint(); s <= state_.NewestCheckpoint();
       s += config_->checkpoint_period) {
    if (state_.HasCheckpoint(s)) {
      vc.checkpoints.emplace_back(s, state_.CheckpointDigest(s));
    }
    if (config_->checkpoint_period == 0) {
      break;
    }
  }
  if (vc.checkpoints.empty() || vc.checkpoints.front().first != state_.OldestCheckpoint()) {
    // Guard for non-aligned oldest checkpoints (e.g., after state transfer).
    vc.checkpoints.clear();
    vc.checkpoints.emplace_back(state_.OldestCheckpoint(),
                                state_.CheckpointDigest(state_.OldestCheckpoint()));
    for (SeqNo s = state_.OldestCheckpoint() + 1; s <= state_.NewestCheckpoint(); ++s) {
      if (state_.HasCheckpoint(s)) {
        vc.checkpoints.emplace_back(s, state_.CheckpointDigest(s));
      }
    }
  }
  for (const auto& [seq, e] : pq_.pset) {
    if (seq > low_ && seq <= low_ + config_->log_size) {
      vc.p.push_back(e);
    }
  }
  for (const auto& [seq, dv] : pq_.qset) {
    if (seq > low_ && seq <= low_ + config_->log_size) {
      vc.q.push_back(ViewChangeMsg::QEntry{seq, dv});
    }
  }
  vc.replica = id();
  AuthAndMulticast(vc);
  vc_msgs_[view_][id()] = vc;
  vc_accepted_[view_][id()] = vc;  // own message is trivially acceptable
  PrimaryTryNewView();
}

void Replica::Handle(ViewChangeMsg m) {
  if (!config_->IsReplicaMember(m.replica) || m.replica == id()) {
    return;
  }
  bool auth_ok = auth_.VerifyAuthMulticast(m.replica, m.AuthContent(), m.auth, &cpu());

  // Correctness check: all P/Q entries must be for views before the new view (Fig 3-3 setup).
  for (const auto& e : m.p) {
    if (e.view >= m.view) {
      return;
    }
  }
  for (const auto& q : m.q) {
    for (const auto& [d, v] : q.dv) {
      if (v >= m.view) {
        return;
      }
    }
  }

  if (!auth_ok) {
    // Keep it: f+1 matching acks can still authenticate it (Section 3.2.4). Anyone can send
    // one without a key, so keep only the latest per sender, and none below our view: a copy
    // per view would let a forger grow this state without bound.
    if (m.view >= view_) {
      vc_unverified_[m.replica] = std::move(m);
    }
    return;
  }

  View v = m.view;
  NodeId sender = m.replica;
  vc_msgs_[v][sender] = std::move(m);

  // Liveness rule: f+1 view-changes for higher views force us to join the smallest of them.
  if (v > view_) {
    std::map<View, int> higher;
    for (const auto& [view, msgs] : vc_msgs_) {
      if (view > view_) {
        higher[view] += static_cast<int>(msgs.size());
      }
    }
    int total = 0;
    for (const auto& [view, count] : higher) {
      total += count;
    }
    if (total >= config_->f() + 1) {
      StartViewChange(higher.begin()->first);
    }
  }

  MaybeAckViewChange(vc_msgs_[v][sender]);
  TryAcceptViewChange(v, sender);
  MaybeStartPendingTimer();
  PrimaryTryNewView();
}

void Replica::MaybeAckViewChange(const ViewChangeMsg& m) {
  if (m.view != view_ || view_active_) {
    return;
  }
  ViewChangeAckMsg ack;
  ack.view = m.view;
  ack.replica = id();
  ack.vc_sender = m.replica;
  ack.vc_digest = m.MessageDigest();
  // Acks are multicast (not just sent to the new primary) so every backup can authenticate
  // the view-change messages a new-view references by counting acks itself, rather than
  // taking the new primary's word for them.
  vc_acks_[m.view][m.replica].insert(id());
  AuthAndMulticast(ack);
}

void Replica::Handle(ViewChangeAckMsg m) {
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  // Only count acks that match the digest of the view-change we hold (or will hold).
  auto vit = vc_msgs_[m.view].find(m.vc_sender);
  if (vit != vc_msgs_[m.view].end() && vit->second.MessageDigest() != m.vc_digest) {
    return;
  }
  auto uit = vc_unverified_.find(m.vc_sender);
  if (uit != vc_unverified_.end() && uit->second.view == m.view &&
      uit->second.MessageDigest() == m.vc_digest) {
    // Promote an unverified view-change once f+1 distinct replicas vouch for it.
    vc_acks_[m.view][m.vc_sender].insert(m.replica);
    if (static_cast<int>(vc_acks_[m.view][m.vc_sender].size()) >= config_->f() + 1) {
      vc_msgs_[m.view][m.vc_sender] = std::move(uit->second);
      vc_unverified_.erase(uit);
    }
  } else {
    vc_acks_[m.view][m.vc_sender].insert(m.replica);
  }
  TryAcceptViewChange(m.view, m.vc_sender);
  PrimaryTryNewView();
}

void Replica::TryAcceptViewChange(View v, NodeId sender) {
  if (vc_accepted_[v].count(sender) != 0) {
    return;
  }
  auto vit = vc_msgs_[v].find(sender);
  if (vit == vc_msgs_[v].end()) {
    return;
  }
  if (config_->PrimaryOf(v) == id()) {
    // The new primary requires 2f-1 acks from replicas other than itself and the sender
    // (together with its own and the sender's implicit vouchers: a quorum).
    int acks = 0;
    for (NodeId a : vc_acks_[v][sender]) {
      if (a != id() && a != sender) {
        ++acks;
      }
    }
    if (acks < 2 * config_->f() - 1) {
      return;
    }
  }
  vc_accepted_[v][sender] = vit->second;
}

void Replica::PrimaryTryNewView() {
  View v = view_;
  if (view_active_ || config_->PrimaryOf(v) != id() || crashed_ || mute_) {
    return;
  }
  auto& s = vc_accepted_[v];
  if (static_cast<int>(s.size()) < config_->quorum()) {
    return;
  }
  ViewChangeDecision decision = RunDecisionProcedure(
      *config_, s, [this](const Digest& d) { return HavePayload(d); });
  if (!decision.checkpoint_selected) {
    return;
  }
  if (!decision.missing_payloads.empty()) {
    // Condition A3 blocked: fetch the missing batches from the other replicas.
    for (const Digest& d : decision.missing_payloads) {
      if (wanted_payloads_.insert(d).second) {
        BatchFetchMsg bf;
        bf.batch_digest = d;
        bf.replica = id();
        AuthAndMulticast(bf);
      }
    }
    return;
  }
  if (!decision.complete) {
    return;
  }

  NewViewMsg nv;
  nv.view = v;
  for (const auto& [sender, vc] : s) {
    nv.vc_set.emplace_back(sender, vc.MessageDigest());
  }
  nv.min_s = decision.min_s;
  nv.chkpt_digest = decision.chkpt_digest;
  nv.chosen = decision.chosen;
  for (const auto& [seq, d] : decision.chosen) {
    if (d != NullBatchDigest()) {
      nv.payloads.push_back(batch_store_.at(d));
    }
  }
  // Retransmit the accepted view-changes first so backups can validate the new-view even if
  // they missed the originals.
  for (const auto& [sender, vc] : s) {
    if (sender != id()) {
      MulticastTo(OtherReplicas(), EncodeTyped(vc));
    }
  }
  AuthAndMulticast(nv);
  sent_new_view_[v] = nv;
  ProcessNewView(nv, s);
}

void Replica::Handle(NewViewMsg m) {
  if (m.view == 0 || m.view < view_ || config_->PrimaryOf(m.view) == id()) {
    return;
  }
  if (m.view == view_ && view_active_) {
    return;
  }
  if (!VerifyFromReplica(config_->PrimaryOf(m.view), m.AuthContent(), m.auth)) {
    return;
  }
  if (m.view > view_) {
    // Catch up to the announced view so our own view-change message exists for it.
    StartViewChange(m.view);
  }

  // Collect the referenced view-change messages; wait (via status retransmission) if missing.
  std::map<NodeId, ViewChangeMsg> s;
  for (const auto& [sender, digest] : m.vc_set) {
    if (sender == id()) {
      auto it = vc_msgs_[m.view].find(id());
      if (it == vc_msgs_[m.view].end() || it->second.MessageDigest() != digest) {
        return;  // a primary lying about our own message: reject
      }
      s[sender] = it->second;
      continue;
    }
    auto it = vc_msgs_[m.view].find(sender);
    if (it != vc_msgs_[m.view].end() && it->second.MessageDigest() == digest) {
      s[sender] = it->second;
      continue;
    }
    auto uit = vc_unverified_.find(sender);
    if (uit != vc_unverified_.end() && uit->second.view == m.view &&
        uit->second.MessageDigest() == digest &&
        static_cast<int>(vc_acks_[m.view][sender].size()) >= config_->f() + 1) {
      s[sender] = uit->second;
      continue;
    }
    pending_new_view_ = std::move(m);
    return;  // missing evidence; status messages will trigger retransmission
  }
  if (static_cast<int>(s.size()) < config_->quorum()) {
    return;
  }

  // Verify the primary's decision by re-running the procedure (Section 3.2.4). Payload
  // availability is checked against the new-view's own payloads plus our store.
  std::set<Digest> nv_payloads;
  for (const BatchPayload& p : m.payloads) {
    nv_payloads.insert(p.BatchDigest());
  }
  ViewChangeDecision decision =
      RunDecisionProcedure(*config_, s, [this, &nv_payloads](const Digest& d) {
        return HavePayload(d) || nv_payloads.count(d) != 0;
      });
  if (!decision.checkpoint_selected || !decision.complete || decision.min_s != m.min_s ||
      decision.chkpt_digest != m.chkpt_digest || decision.chosen != m.chosen) {
    // The primary's decision does not follow from the evidence: it is faulty. Move on.
    StartViewChange(m.view + 1);
    return;
  }

  pending_new_view_.reset();
  ProcessNewView(m, s);
}

void Replica::ProcessNewView(const NewViewMsg& nv, const std::map<NodeId, ViewChangeMsg>& s) {
  // Store payloads carried by the new-view.
  for (const BatchPayload& p : nv.payloads) {
    batch_store_[p.BatchDigest()] = p;
  }

  // Abort uncommitted tentative execution: revert to the newest checkpoint at or below the
  // committed prefix and re-execute (Section 5.1.2).
  if (last_tentative_exec_ > last_exec_) {
    SeqNo target = state_.NewestCheckpoint();
    while (target > last_exec_ && target > state_.OldestCheckpoint()) {
      // Find a retained checkpoint not past the committed prefix.
      SeqNo prev = state_.OldestCheckpoint();
      for (SeqNo c = state_.OldestCheckpoint(); c <= last_exec_; ++c) {
        if (state_.HasCheckpoint(c)) {
          prev = std::max(prev, c);
        }
      }
      target = prev;
      break;
    }
    if (target <= last_exec_ && state_.HasCheckpoint(target)) {
      Bytes extra = state_.RollbackToCheckpoint(target);
      DecodeLastReplies(extra);
      for (auto& [seq, entry] : log_) {
        if (seq > target) {
          entry.executed_tentative = false;
          entry.executed_committed = false;
        }
      }
      last_exec_ = target;
      last_tentative_exec_ = target;
      pending_checkpoint_digest_.erase(pending_checkpoint_digest_.upper_bound(target),
                                       pending_checkpoint_digest_.end());
      ++stats_.rollbacks;
      obs_.rollbacks->Inc();
    }
  }

  // Adopt the chosen checkpoint if we are behind.
  if (nv.min_s > last_exec_) {
    if (state_.HasCheckpoint(nv.min_s)) {
      // We took the checkpoint tentatively; fast-forward to it.
      last_exec_ = nv.min_s;
      last_tentative_exec_ = std::max(last_tentative_exec_, nv.min_s);
    } else {
      MaybeStartStateTransfer(nv.min_s, nv.chkpt_digest);
    }
  }
  if (nv.min_s > low_) {
    if (state_.HasCheckpoint(nv.min_s)) {
      CollectGarbage(nv.min_s);
    } else {
      low_ = nv.min_s;
    }
  }

  InstallChosenBatches(nv);
  EnterView(nv.view);
}

void Replica::InstallChosenBatches(const NewViewMsg& nv) {
  bool is_new_primary = config_->PrimaryOf(nv.view) == id();
  SeqNo max_chosen = nv.min_s;
  for (const auto& [seq, d] : nv.chosen) {
    max_chosen = std::max(max_chosen, seq);
    if (seq <= low_) {
      continue;  // covered by the stable checkpoint
    }
    // The protocol is redone for every chosen sequence number — even ones this replica already
    // executed — so that lagging replicas can assemble fresh certificates in the new view.
    // Execution itself is not repeated (Section 2.3.5).
    bool already_executed = seq <= last_exec_;
    LogEntry fresh;
    fresh.d = d;
    fresh.pp_view = nv.view;
    fresh.is_null = (d == NullBatchDigest());
    // Execution flags are pre-set for the executed prefix, but prepared/committed are not:
    // the certificates re-form in the new view so everyone (including laggards) collects them.
    fresh.executed_tentative = already_executed;
    fresh.executed_committed = already_executed;
    PrePrepareMsg pp;
    pp.view = nv.view;
    pp.seq = seq;
    if (!fresh.is_null) {
      const BatchPayload& payload = batch_store_.at(d);
      pp.ndet = payload.ndet;
      for (const RequestMsg& req : payload.requests) {
        pp.inline_requests.push_back(req);
      }
    }
    fresh.pre_prepare = std::move(pp);
    fresh.sent_prepare = true;
    LogEntry& entry = log_[seq] = std::move(fresh);

    if (!is_new_primary) {
      SendOwnPrepare(entry, nv.view, seq, d);
    }
  }
  // Entries above the chosen range belong to dead views: they can never commit with their old
  // view number, and keeping them would stop the new primary from re-proposing their requests.
  log_.erase(log_.upper_bound(std::max(max_chosen, last_exec_)), log_.end());
  if (is_new_primary) {
    seqno_ = max_chosen;
  }
}

void Replica::EnterView(View v) {
  view_ = v;
  view_active_ = true;
  ++stats_.new_views_entered;
  obs_.new_views->Inc();
  obs_.view->Set(static_cast<int64_t>(v));
  vc_timeout_ = config_->view_change_timeout;  // progress: reset the backoff
  StopViewChangeTimer();
  vc_timer_running_ = false;

  // Requeue known-but-unexecuted requests at a new primary.
  if (config_->PrimaryOf(v) == id()) {
    request_queue_.clear();
    queued_timestamp_.clear();
    // Requests already in a logged, unexecuted batch: each hashed once, not once per
    // pending request.
    std::unordered_set<Digest, DigestHasher> in_log;
    for (const auto& [seq, entry] : log_) {
      if (seq > last_exec_ && HavePayload(entry.d) && entry.d != NullBatchDigest()) {
        for (const RequestMsg& r : batch_store_.at(entry.d).requests) {
          in_log.insert(r.RequestDigest());
        }
      }
    }
    for (const auto& [d, req] : requests_) {
      auto lit = last_reply_.find(req.client);
      if (lit != last_reply_.end() && req.timestamp <= lit->second.timestamp) {
        continue;
      }
      if (in_log.count(d) == 0) {
        queued_timestamp_[req.client] = req.timestamp;
        request_queue_.push_back(d);
      }
    }
  }

  // Garbage-collect old view-change bookkeeping.
  vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.lower_bound(v));
  vc_accepted_.erase(vc_accepted_.begin(), vc_accepted_.lower_bound(v));
  std::erase_if(vc_unverified_, [v](const auto& entry) { return entry.second.view < v; });
  vc_acks_.erase(vc_acks_.begin(), vc_acks_.lower_bound(v));

  TryExecute();
  TrySendPrePrepare();
}

// --- Batch fetch ----------------------------------------------------------------------------------

void Replica::Handle(BatchFetchMsg m) {
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  auto it = batch_store_.find(m.batch_digest);
  if (it == batch_store_.end()) {
    return;
  }
  BatchReplyMsg reply;
  reply.payload = it->second;
  reply.replica = id();
  AuthAndSend(m.replica, std::move(reply));
}

void Replica::Handle(BatchReplyMsg m) {
  // Self-certifying: accept only if we asked for this digest and the payload matches it.
  Digest d = m.payload.BatchDigest();
  if (wanted_payloads_.count(d) == 0) {
    return;
  }
  wanted_payloads_.erase(d);
  batch_store_[d] = std::move(m.payload);
  PrimaryTryNewView();
}

// --- Status & retransmission (Section 5.2) ----------------------------------------------------------

void Replica::OnStatusTimer() {
  if (!crashed_) {
    SendStatus();
    status_timer_ = SetTimer(config_->status_interval + rng_.Below(kMillisecond),
                             [this]() { OnStatusTimer(); });
  }
}

void Replica::SendStatus() {
  StatusMsg st;
  st.view = view_;
  st.view_active = view_active_;
  st.last_stable = low_;
  st.last_exec = last_exec_;
  size_t span = config_->log_size;
  st.prepared_bits.assign((span + 7) / 8, 0);
  st.committed_bits.assign((span + 7) / 8, 0);
  for (const auto& [seq, entry] : log_) {
    if (seq <= low_ || seq > low_ + span) {
      continue;
    }
    size_t bit = seq - low_ - 1;
    if (entry.prepared) {
      st.prepared_bits[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
    if (entry.committed) {
      st.committed_bits[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  st.has_new_view = view_active_;
  st.vc_have_bits.assign((static_cast<size_t>(config_->n) + 7) / 8, 0);
  for (const auto& [sender, vc] : vc_msgs_[view_]) {
    size_t bit = static_cast<size_t>(config_->ReplicaIndex(sender));
    st.vc_have_bits[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
  }
  st.replica = id();
  AuthAndMulticast(st);
}

void Replica::Handle(StatusMsg m) {
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  NodeId peer = m.replica;

  if (m.view < view_) {
    // The peer is in an old view: retransmit our view-change for the current view, plus the
    // new-view if we are (or have heard from) its primary.
    auto vit = vc_msgs_[view_].find(id());
    if (vit != vc_msgs_[view_].end()) {
      ResendOwn(peer, vit->second);
    }
    auto nit = sent_new_view_.find(view_);
    if (nit != sent_new_view_.end()) {
      ResendOwn(peer, nit->second);
    }
    return;
  }
  if (m.view > view_) {
    return;  // we are the stale one; our own status will trigger help
  }

  if (!m.view_active) {
    // Peer is waiting for view-change evidence for this view. Our own message is re-signed
    // with fresh keys; others' are forwarded verbatim (the ack mechanism authenticates them).
    for (const auto& [sender, vc] : vc_msgs_[view_]) {
      size_t bit = static_cast<size_t>(config_->ReplicaIndex(sender));
      size_t byte = bit / 8;
      if (byte < m.vc_have_bits.size() && (m.vc_have_bits[byte] >> (bit % 8)) & 1) {
        continue;
      }
      if (sender == id()) {
        ResendOwn(peer, vc);
      } else {
        SendTo(peer, EncodeTyped(vc));
      }
    }
    auto nit = sent_new_view_.find(view_);
    if (nit != sent_new_view_.end() && !m.has_new_view) {
      ResendOwn(peer, nit->second);
    }
    return;
  }

  if (m.last_stable < low_) {
    // The peer is behind our stable checkpoint: resend our checkpoint message so it can
    // assemble the certificate and start state transfer if needed.
    auto cit = checkpoint_msgs_.find(low_);
    if (cit == checkpoint_msgs_.end()) {
      // Our own message was garbage collected with the advance; regenerate it.
      if (state_.HasCheckpoint(low_)) {
        CheckpointMsg cp;
        cp.seq = low_;
        cp.state_digest = state_.CheckpointDigest(low_);
        cp.replica = id();
        AuthAndSend(peer, std::move(cp));
      }
    } else {
      for (const auto& [r, cp] : cit->second) {
        if (r == id()) {
          ResendOwn(peer, cp);
        }
      }
    }
  }

  // Retransmit per-sequence protocol messages the peer is missing.
  for (const auto& [seq, entry] : log_) {
    if (seq <= std::max(m.last_exec, m.last_stable) || seq > m.last_stable + config_->log_size) {
      continue;
    }
    size_t bit = seq > m.last_stable ? seq - m.last_stable - 1 : 0;
    bool peer_prepared = bit / 8 < m.prepared_bits.size() &&
                         ((m.prepared_bits[bit / 8] >> (bit % 8)) & 1) != 0;
    bool peer_committed = bit / 8 < m.committed_bits.size() &&
                          ((m.committed_bits[bit / 8] >> (bit % 8)) & 1) != 0;
    if (!peer_prepared && entry.pre_prepare.has_value() && entry.pp_view == view_) {
      if (config_->PrimaryOf(view_) == id()) {
        ResendOwn(peer, *entry.pre_prepare);
      }
      if (entry.own_prepare.has_value()) {
        ResendOwn(peer, *entry.own_prepare);
      }
    }
    if (!peer_committed && entry.own_commit.has_value()) {
      ResendOwn(peer, *entry.own_commit);
    }
  }
}

// --- Fault injection --------------------------------------------------------------------------------

void Replica::Crash() {
  crashed_ = true;
  CancelAllTimers();
  Detach();
}

void Replica::CorruptStatePages(size_t count) {
  // Scribbles over pages *without* telling the protocol (no Modify), simulating an attacker
  // with a memory write primitive. Only recovery's state checking can find this.
  size_t pages = std::min(count, state_.num_pages());
  for (size_t i = 0; i < pages; ++i) {
    uint64_t page = rng_.Below(state_.num_pages());
    uint8_t* raw = const_cast<uint8_t*>(state_.data()) + page * state_.page_size();
    for (size_t b = 0; b < 64; ++b) {
      raw[b] ^= static_cast<uint8_t>(rng_.Next());
    }
  }
}

}  // namespace bft
