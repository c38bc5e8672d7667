// State transfer (Section 5.3.2), state checking (5.3.3), and proactive recovery (Chapter 4).
#include <algorithm>

#include "src/common/logging.h"
#include "src/core/replica.h"

namespace bft {

namespace {
constexpr SimTime kFetchRetry = 40 * kMillisecond;
constexpr char kRecoveryTag[] = "\x7f_BFT_RECOVERY";
}  // namespace

// --- Server side -------------------------------------------------------------------------------

void Replica::Handle(FetchMsg m) {
  if (!config_->IsReplicaMember(m.replica) || m.replica == id()) {
    return;
  }
  if (!auth_.VerifyAuthMulticast(m.replica, m.AuthContent(), m.auth, &cpu())) {
    ++stats_.rejected_auth;
    obs_.auth_rejected->Inc();
    return;
  }
  SeqNo target = m.target;
  if (!state_.HasCheckpoint(target)) {
    // We no longer (or do not yet) hold the requested checkpoint; offer our newest instead so
    // the fetcher can restart against a fresher target (Section 5.3.2's non-designated path).
    return;
  }

  if (m.level == kSummaryLevel) {
    MetaDataMsg md;
    md.target = target;
    md.level = kSummaryLevel;
    md.index = 0;
    auto info = state_.GetNodeInfo(0, 0, target);
    if (!info.has_value()) {
      return;
    }
    md.parts.push_back(MetaDataMsg::Part{0, info->first, info->second});
    md.extra = state_.CheckpointExtra(target);
    md.replica = id();
    md.nonce = m.nonce;
    AuthAndSend(m.replica, std::move(md));
    return;
  }

  if (m.level >= state_.leaf_level()) {
    // Page fetch. The reply is self-certifying (checked against a known digest), so it carries
    // no MAC — this is what keeps the burden on repliers low (Section 5.3.2).
    auto page = state_.GetPage(m.index, target);
    if (!page.has_value()) {
      return;
    }
    DataMsg data;
    data.index = m.index;
    data.lm = page->first;
    data.value = std::move(page->second);
    SendTo(m.replica, EncodeTyped(data));
    return;
  }

  MetaDataMsg md;
  md.target = target;
  md.level = m.level;
  md.index = m.index;
  md.parts = state_.GetMetaData(m.level, m.index, target);
  md.replica = id();
  md.nonce = m.nonce;
  AuthAndSend(m.replica, std::move(md));
}

// --- Fetcher side --------------------------------------------------------------------------------

void Replica::MaybeStartStateTransfer(SeqNo target, const Digest& full_digest) {
  if (target <= last_exec_) {
    return;
  }
  if (transfer_active_) {
    if (transfer_checking_) {
      // A full transfer supersedes an in-progress state check; redo the check afterwards.
      state_check_pending_ = true;
      AbortStateTransfer();
    } else if (transfer_target_ >= target) {
      return;
    }
  }
  transfer_active_ = true;
  transfer_checking_ = false;
  transfer_target_ = target;
  transfer_full_digest_ = full_digest;
  transfer_have_root_ = false;
  transfer_queue_.clear();
  transfer_inflight_.reset();
  ++transfer_nonce_;
  ++stats_.state_transfers;
  obs_.state_transfers->Inc();

  FetchMsg fetch;
  fetch.level = kSummaryLevel;
  fetch.index = 0;
  fetch.last_known = state_.NewestCheckpoint();
  fetch.target = target;
  fetch.replica = id();
  fetch.nonce = transfer_nonce_;
  AuthAndMulticast(fetch);

  uint64_t nonce = transfer_nonce_;
  transfer_timer_ = SetTimer(kFetchRetry, [this, nonce]() {
    if (transfer_active_ && transfer_nonce_ == nonce && !transfer_have_root_) {
      AbortStateTransfer();
      MaybeStartStateTransfer(std::max(transfer_target_, observed_stable_seq_),
                              observed_stable_seq_ > transfer_target_
                                  ? observed_stable_digest_
                                  : transfer_full_digest_);
    }
  });
}

void Replica::AbortStateTransfer() {
  transfer_active_ = false;
  transfer_queue_.clear();
  transfer_inflight_.reset();
  ++transfer_nonce_;
}

void Replica::FetchNextPartition() {
  if (!transfer_active_ || transfer_inflight_.has_value()) {
    return;
  }
  while (!transfer_queue_.empty()) {
    PendingPart part = transfer_queue_.front();
    transfer_queue_.pop_front();

    // Skip subtrees that already match (this is the whole point of the hierarchy: the fetcher
    // only descends into partitions whose digests differ).
    auto [local_lm, local_d] = state_.LiveNodeInfo(part.level, part.index);
    if (part.level >= state_.leaf_level() && transfer_checking_) {
      // State checking recomputes the page digest from live memory — a corrupt page whose
      // cached digest still looks right must be caught (Section 5.3.3).
      ByteView page(state_.data() + part.index * state_.page_size(), state_.page_size());
      cpu().Charge(model_->DigestCost(state_.page_size()));
      local_d = ReplicaState::PageDigest(part.index, local_lm, page);
    }
    if (local_lm == part.lm && local_d == part.d) {
      continue;
    }

    transfer_inflight_ = part;
    obs_.state_fetches->Inc();
    FetchMsg fetch;
    fetch.level = part.level;
    fetch.index = part.index;
    fetch.last_known = state_.NewestCheckpoint();
    fetch.target = transfer_target_;
    // Rotate the designated replier across retries.
    fetch.replier = config_->ReplicaId(static_cast<int>(rng_.Below(config_->n)));
    fetch.replica = id();
    fetch.nonce = transfer_nonce_;
    AuthAndMulticast(fetch);

    uint64_t nonce = transfer_nonce_;
    transfer_timer_ = SetTimer(kFetchRetry, [this, nonce]() {
      if (transfer_active_ && transfer_nonce_ == nonce && transfer_inflight_.has_value()) {
        // Re-enqueue and retry (a different replier will be picked).
        transfer_queue_.push_front(*transfer_inflight_);
        transfer_inflight_.reset();
        FetchNextPartition();
      }
    });
    return;
  }
  FinishStateTransfer();
}

void Replica::Handle(MetaDataMsg m) {
  if (!transfer_active_ || m.nonce != transfer_nonce_ || m.target != transfer_target_) {
    return;
  }
  if (!auth_.VerifyAuthPoint(m.replica, m.AuthContent(), m.auth, &cpu())) {
    return;
  }

  if (m.level == kSummaryLevel) {
    if (transfer_have_root_ || m.parts.size() != 1) {
      return;
    }
    // The summary is verified against the checkpoint certificate's full digest, so one reply
    // from anyone is enough.
    Digest full = state_.ComputeFullDigest(m.parts[0].d, m.extra);
    if (full != transfer_full_digest_) {
      return;
    }
    transfer_have_root_ = true;
    transfer_extra_ = m.extra;
    transfer_queue_.clear();
    transfer_queue_.push_back(
        PendingPart{0, 0, m.parts[0].lm, m.parts[0].d});
    CancelTimer(transfer_timer_);
    FetchNextPartition();
    return;
  }

  if (!transfer_inflight_.has_value() || transfer_inflight_->level != m.level ||
      transfer_inflight_->index != m.index) {
    return;
  }
  // Verify the children against the parent's digest: the parent commits the AdHash of the
  // child digests and its own lm.
  AdHash sum;
  for (const auto& part : m.parts) {
    sum.Add(part.d);
  }
  Writer w;
  w.U32(m.level);
  w.U64(m.index);
  w.U64(transfer_inflight_->lm);
  WriteDigest(w, sum.Value());
  if (ComputeDigest(w.data()) != transfer_inflight_->d) {
    return;  // inconsistent reply; the retry timer will re-fetch from another replier
  }
  CancelTimer(transfer_timer_);
  uint32_t child_level = m.level + 1;
  for (const auto& part : m.parts) {
    transfer_queue_.push_back(PendingPart{child_level, part.index, part.lm, part.d});
  }
  transfer_inflight_.reset();
  FetchNextPartition();
}

void Replica::Handle(DataMsg m) {
  if (!transfer_active_ || !transfer_inflight_.has_value()) {
    return;
  }
  const PendingPart& part = *transfer_inflight_;
  if (part.level < state_.leaf_level() || part.index != m.index || part.lm != m.lm) {
    return;
  }
  if (m.value.size() != state_.page_size()) {
    return;
  }
  cpu().Charge(model_->DigestCost(m.value.size()));
  if (ReplicaState::PageDigest(m.index, m.lm, m.value) != part.d) {
    return;  // forged or stale; retry timer handles it
  }
  CancelTimer(transfer_timer_);
  state_.ApplyFetchedPage(m.index, m.lm, m.value);
  ++stats_.pages_fetched;
  obs_.state_pages->Inc();
  transfer_inflight_.reset();
  FetchNextPartition();
}

void Replica::FinishStateTransfer() {
  transfer_active_ = false;
  transfer_inflight_.reset();

  if (transfer_checking_) {
    // State checking repaired pages in place; nothing to adopt.
    CheckRecoveryComplete();
    return;
  }

  Digest full = state_.FinalizeFetchedCheckpoint(transfer_target_, transfer_extra_);
  if (full != transfer_full_digest_) {
    // Should be impossible given per-part verification; restart defensively.
    BFT_ERROR("replica " << id() << ": state transfer digest mismatch, restarting");
    MaybeStartStateTransfer(observed_stable_seq_, observed_stable_digest_);
    return;
  }

  // Adopt the fetched checkpoint: it is stable (it had a quorum certificate).
  DecodeLastReplies(transfer_extra_);
  AdvanceLow(transfer_target_, /*drop_pending=*/true);
  last_exec_ = transfer_target_;
  last_tentative_exec_ = transfer_target_;
  last_prepared_seq_ = std::max(last_prepared_seq_, transfer_target_);
  seqno_ = std::max(seqno_, transfer_target_);
  pending_pps_.clear();
  BFT_INFO("replica " << id() << ": state transfer to seq " << transfer_target_ << " complete ("
                      << stats_.pages_fetched << " pages fetched total)");
  TryExecute();
  if (state_check_pending_) {
    RunStateCheck();
  }
  CheckRecoveryComplete();
}

// --- Key freshness (Section 4.3.1) -----------------------------------------------------------------

void Replica::SendNewKey() {
  if (mute_ || crashed_) {
    return;
  }
  auth_.BumpMyEpoch();
  NewKeyMsg nk;
  nk.replica = id();
  nk.epoch = auth_.my_epoch();
  nk.counter = ++monotonic_counter_;
  // Always signed by the secure co-processor, whatever the protocol's AuthMode.
  nk.auth = auth_.GenerateSignature(nk.AuthContent(), &cpu());
  MulticastTo(OtherReplicas(), EncodeTyped(nk));
}

void Replica::Handle(NewKeyMsg m) {
  if (!config_->IsReplicaMember(m.replica) || m.replica == id()) {
    return;
  }
  if (!auth_.VerifySignature(m.replica, m.AuthContent(), m.auth, &cpu())) {
    ++stats_.rejected_auth;
    obs_.auth_rejected->Inc();
    return;
  }
  // The co-processor counter defends against suppress-replay attacks.
  uint64_t& last = peer_counters_[m.replica];
  if (m.counter <= last) {
    return;
  }
  last = m.counter;
  auth_.SetPeerEpoch(m.replica, m.epoch);
}

// --- Proactive recovery (Section 4.3.2) --------------------------------------------------------------

void Replica::OnWatchdog() {
  if (!crashed_) {
    StartRecovery();
    SetTimer(config_->watchdog_period, [this]() { OnWatchdog(); });
  }
}

void Replica::OnKeyRefresh() {
  if (!crashed_) {
    if (!recovering_) {
      SendNewKey();
    }
    SetTimer(config_->key_refresh_period, [this]() { OnKeyRefresh(); });
  }
}

void Replica::StartRecovery() {
  if (recovering_ || crashed_) {
    return;
  }
  recovering_ = true;
  ++stats_.recoveries_started;
  recovery_point_known_ = false;
  recovery_replies_.clear();
  est_replies_.clear();
  recovery_started_at_ = Now();

  // A recovering primary hands off leadership first so availability does not suffer.
  if (config_->PrimaryOf(view_) == id() && view_active_) {
    StartViewChange(view_ + 1);
  }

  // Save state and reboot with correct code (simulated by a fixed off-line interval; the
  // replica keeps its state, per Section 4.3.2).
  Detach();
  SetTimer(config_->recovery_reboot_time, [this]() {
    Reattach();
    ContinueRecoveryAfterReboot();
  });
}

void Replica::ContinueRecoveryAfterReboot() {
  // Step 1: change keys — the attacker may know the old ones.
  SendNewKey();

  // Step 2: estimation protocol for Hm.
  recovery_estimating_ = true;
  ++recovery_nonce_;
  QueryStableMsg q;
  q.replica = id();
  q.nonce = recovery_nonce_;
  AuthAndMulticast(q);
  uint64_t nonce = recovery_nonce_;
  SetTimer(kFetchRetry, [this, nonce]() {
    if (recovery_estimating_ && recovery_nonce_ == nonce) {
      QueryStableMsg retry;
      retry.replica = id();
      retry.nonce = recovery_nonce_;
      AuthAndMulticast(retry);
    }
  });
}

void Replica::Handle(QueryStableMsg m) {
  if (!VerifyFromReplica(m.replica, m.AuthContent(), m.auth)) {
    return;
  }
  ReplyStableMsg r;
  r.last_checkpoint = state_.NewestCheckpoint();
  r.last_prepared = last_prepared_seq_;
  r.nonce = m.nonce;
  r.replica = id();
  AuthAndSend(m.replica, std::move(r));
}

void Replica::Handle(ReplyStableMsg m) {
  if (!recovery_estimating_ || m.nonce != recovery_nonce_) {
    return;
  }
  if (!config_->IsReplicaMember(m.replica) || m.replica == id()) {
    return;
  }
  if (!auth_.VerifyAuthPoint(m.replica, m.AuthContent(), m.auth, &cpu())) {
    return;
  }
  auto it = est_replies_.find(m.replica);
  if (it == est_replies_.end()) {
    est_replies_[m.replica] = {m.last_checkpoint, m.last_prepared};
  } else {
    // Keep the minimum c and maximum p per replica (Section 4.3.2).
    it->second.first = std::min(it->second.first, m.last_checkpoint);
    it->second.second = std::max(it->second.second, m.last_prepared);
  }
  RecomputeEstimation();
}

void Replica::RecomputeEstimation() {
  // Find c_m from some replica r such that 2f replicas other than r reported c <= c_m and
  // f replicas other than r reported p >= c_m.
  for (const auto& [r, cp] : est_replies_) {
    SeqNo candidate = cp.first;
    int c_ok = 0;
    int p_ok = 0;
    for (const auto& [r2, cp2] : est_replies_) {
      if (r2 == r) {
        continue;
      }
      if (cp2.first <= candidate) {
        ++c_ok;
      }
      if (cp2.second >= candidate) {
        ++p_ok;
      }
    }
    if (c_ok >= 2 * config_->f() && p_ok >= config_->f()) {
      recovery_max_seq_ = candidate + config_->log_size();  // Hm = c_m + L
      ClearLogAbove(recovery_max_seq_);  // entries above the bound may be corrupt
      recovery_estimating_ = false;
      SendRecoveryRequest();
      return;
    }
  }
}

void Replica::SendRecoveryRequest() {
  RequestMsg req;
  req.client = id();
  req.timestamp = ++monotonic_counter_;
  req.read_only = false;
  req.designated_replier = 0xffffffff;  // everyone replies with the full result
  req.op = ToBytes(kRecoveryTag);
  recovery_request_ts_ = req.timestamp;
  cpu().Charge(model_->DigestCost(req.op.size()));  // AuthContent() hashes the op
  req.auth = auth_.GenerateAuthenticator(req.AuthContent(), &cpu());
  // Signed conceptually by the co-processor; charge the signature cost on top.
  cpu().Charge(model_->SignCost());
  MulticastTo(OtherReplicas(), EncodeTyped(req));

  uint64_t ts = recovery_request_ts_;
  SetTimer(4 * kFetchRetry, [this, ts]() {
    if (recovering_ && !recovery_point_known_ && recovery_request_ts_ == ts) {
      SendRecoveryRequest();  // retransmit with a fresh timestamp
    }
  });
}

void Replica::Handle(ReplyMsg m) {
  if (!recovering_ || recovery_point_known_ || m.timestamp != recovery_request_ts_) {
    return;
  }
  if (!config_->IsReplicaMember(m.replica) || m.replica == id()) {
    return;
  }
  if (!auth_.VerifyAuthPoint(m.replica, m.AuthContent(), m.auth, &cpu())) {
    return;
  }
  recovery_replies_[m.replica] = m;

  // Wait for a quorum of matching results (Section 4.3.2).
  std::map<Digest, int> counts;
  for (const auto& [r, reply] : recovery_replies_) {
    ++counts[reply.result_digest];
  }
  for (const auto& [d, count] : counts) {
    if (count < config_->quorum()) {
      continue;
    }
    // Decode the sequence number the recovery request executed at.
    Bytes result;
    for (const auto& [r, reply] : recovery_replies_) {
      if (reply.result_digest == d && reply.has_result) {
        result = reply.result;
        break;
      }
    }
    if (result.empty()) {
      return;
    }
    Reader rd(result);
    SeqNo l = rd.U64();
    if (!rd.ok()) {
      return;
    }
    SeqNo k = config_->checkpoint_period;
    SeqNo hl = ((l + k - 1) / k) * k + config_->log_size();
    recovery_point_ = std::max(recovery_max_seq_, hl);
    recovery_point_known_ = true;

    // Adopt a valid view: keep ours if f+1 replies are at or above it, else take the median.
    std::vector<View> views;
    for (const auto& [r, reply] : recovery_replies_) {
      views.push_back(reply.view);
    }
    std::sort(views.begin(), views.end());
    int at_or_above = 0;
    for (View v : views) {
      if (v >= view_) {
        ++at_or_above;
      }
    }
    if (at_or_above < config_->weak() && !views.empty()) {
      View median = views[views.size() / 2];
      if (median > view_) {
        view_ = median;
        view_active_ = false;  // status messages will fetch the new-view evidence
        AdvanceViewChangeSlots();
        SendViewChange();
      }
    }

    RunStateCheck();
    CheckRecoveryComplete();
    return;
  }
}

void Replica::RunStateCheck() {
  if (transfer_active_) {
    // A full transfer is already rewriting the state; re-check once it completes.
    state_check_pending_ = true;
    return;
  }
  state_check_pending_ = false;
  // Detect pages whose live contents no longer match their recorded digests (an attacker who
  // scribbled on memory without going through Modify), then repair them from other replicas.
  // Pages dirtied since the last checkpoint are legitimately ahead of their digests and are
  // covered by the next checkpoint instead.
  std::deque<PendingPart> corrupt;
  for (uint64_t p = 0; p < state_.num_pages(); ++p) {
    if (state_.dirty_pages().count(p) != 0) {
      continue;
    }
    auto [lm, d] = state_.LiveNodeInfo(state_.leaf_level(), p);
    ByteView page(state_.data() + p * state_.page_size(), state_.page_size());
    cpu().Charge(model_->DigestCost(state_.page_size()));
    if (ReplicaState::PageDigest(p, lm, page) != d) {
      corrupt.push_back(PendingPart{state_.leaf_level(), p, lm, d});
    }
  }
  if (corrupt.empty()) {
    return;
  }
  BFT_INFO("replica " << id() << ": state check found " << corrupt.size() << " corrupt pages");
  transfer_active_ = true;
  transfer_checking_ = true;
  transfer_target_ = state_.NewestCheckpoint();
  transfer_have_root_ = true;
  transfer_queue_ = std::move(corrupt);
  transfer_inflight_.reset();
  ++transfer_nonce_;
  FetchNextPartition();
}

void Replica::CheckRecoveryComplete() {
  if (!recovering_ || !recovery_point_known_ || transfer_active_) {
    return;
  }
  if (low_ < recovery_point_) {
    return;  // wait until the checkpoint at the recovery point is stable
  }
  recovering_ = false;
  ++stats_.recoveries;
  stats_.last_recovery_duration = Now() - recovery_started_at_;
  BFT_INFO("replica " << id() << ": recovery complete in "
                      << stats_.last_recovery_duration / kMillisecond << " ms");
}

}  // namespace bft
