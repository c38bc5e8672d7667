#include "src/core/client.h"

#include <cassert>

#include "src/common/logging.h"

namespace bft {

Client::Client(std::unique_ptr<Endpoint> endpoint, const ReplicaConfig* config,
               const PerfModel* model, PublicKeyDirectory* directory, uint64_t seed)
    : ep_(std::move(endpoint)),
      config_(config),
      model_(model),
      auth_(ep_->id(), config, model, directory, directory->Generate(ep_->id(), seed)),
      rng_(seed ^ (ep_->id() * 0xd1342543de82ef95ULL)),
      retry_timeout_(config->client_retry_timeout),
      replies_(static_cast<size_t>(config->n)),
      replica_ids_(config->ReplicaIds()) {
  assert(IsClientId(id()));
  InstallObservability(&MetricsRegistry::Process(), nullptr);
  ep_->SetHandler([this](MsgBuffer message) { OnMessage(std::move(message)); });
}

void Client::InstallObservability(MetricsRegistry* registry, RequestTracer* tracer) {
  tracer_ = tracer;
  std::string node = "client=\"" + std::to_string(id()) + "\"";
  obs_.ops = registry->GetCounter("bft_client_ops_total", node);
  obs_.retransmissions = registry->GetCounter("bft_client_retransmissions_total", node);
  obs_.view_probes = registry->GetCounter("bft_client_view_probe_total", node);
  obs_.result_refetches = registry->GetCounter("bft_client_result_refetches_total", node);
  obs_.latency = registry->GetHistogram("bft_client_latency_us", node);
}

// Quiesce the endpoint before any member dies: a real-clock runtime's loop thread may
// otherwise still be dispatching into this object while it is being torn down.
Client::~Client() { ep_->Close(); }

void Client::Invoke(Bytes op, bool read_only, Callback callback) {
  assert(!busy_);
  busy_ = true;
  callback_ = std::move(callback);
  ClearReplies();
  issued_at_ = Now();
  retry_timeout_ = RetryBase();
  retries_this_op_ = 0;
  current_read_only_path_ = read_only && config_->read_only_optimization;

  current_ = RequestMsg{};
  current_.client = id();
  current_.timestamp = ++last_timestamp_;
  current_.read_only = current_read_only_path_;
  // Digest-replies optimization: one replica is designated to return the full result.
  current_.designated_replier =
      config_->digest_replies
          ? config_->ReplicaId(static_cast<int>(rng_.Below(config_->n)))
          : kEveryone;
  current_.op = std::move(op);

  if (tracer_ != nullptr && tracer_->enabled() &&
      tracer_->Sampled(current_.client, current_.timestamp)) {
    tracer_->Stamp(TracePhase::kDispatch, current_.client, current_.timestamp, Now());
  }
  current_digest_ = current_.RequestDigest();
  cpu().Charge(model_->DigestCost(current_.op.size()));
  SendCurrentRequest(
      /*broadcast=*/config_->ClientMulticasts(current_.read_only, current_.op.size()));
}

void Client::SendCurrentRequest(bool broadcast) {
  // BFT: an authenticator with one MAC per replica. BFT-PK: a signature.
  current_.auth = auth_.GenAuthMulticast(current_.AuthContent(current_digest_), &cpu());
  // Encode once: broadcast shares the same refcounted buffer across all replicas.
  MsgBuffer wire = EncodeTyped(current_);
  if (broadcast) {
    // Read-only requests, large requests (separate transmission), and retransmissions go to
    // every replica.
    MulticastTo(replica_ids_, wire);
  } else {
    SendTo(config_->PrimaryOf(view_), std::move(wire));
  }
  if (retry_timer_running_) {
    CancelTimer(retry_timer_);
  }
  retry_timer_running_ = true;
  retry_timer_ = SetTimer(retry_timeout_, [this]() { OnRetryTimer(); });
}

void Client::OnRetryTimer() {
  retry_timer_running_ = false;
  if (!busy_) {
    return;
  }
  ++stats_.retransmissions;
  obs_.retransmissions->Inc();
  if (retries_this_op_++ > 0) {
    // See Stats::view_probes: from the second timeout on, the broadcast below is probing
    // for a faulty primary, not recovering from a lost datagram.
    ++stats_.view_probes;
    obs_.view_probes->Inc();
  }
  // Randomized exponential backoff (Section 5.2), capped so a healed service is re-probed
  // within bounded time. Base, cap, and jitter come from the per-client ClientConfig.
  SimTime jitter =
      client_config_.retry_jitter > 0 ? rng_.Below(client_config_.retry_jitter) : 0;
  retry_timeout_ = std::min(retry_timeout_ * 2 + jitter, RetryCap());

  if (current_read_only_path_) {
    // A read-only request that cannot assemble a certificate (e.g., concurrent writes or
    // faulty replicas) is re-issued as a regular read-write request (Section 5.1.3).
    current_read_only_path_ = false;
    current_.read_only = false;
    ClearReplies();
  }
  // Retransmissions request full replies from everyone so the result is sure to arrive.
  current_.designated_replier = kEveryone;
  SendCurrentRequest(/*broadcast=*/true);
}

void Client::OnMessage(MsgBuffer raw) {
  std::optional<Message> decoded = DecodeMessage(raw.view());
  if (!decoded.has_value() || !std::holds_alternative<ReplyMsg>(*decoded)) {
    return;
  }
  ReplyMsg m = std::get<ReplyMsg>(std::move(*decoded));
  if (!busy_ || m.client != id() || m.timestamp != current_.timestamp) {
    return;
  }
  if (!config_->IsReplicaMember(m.replica)) {
    return;
  }
  if (!auth_.VerifyAuthPoint(m.replica, m.AuthContent(), m.auth, &cpu())) {
    return;
  }
  if (m.has_result) {
    cpu().Charge(model_->DigestCost(m.result.size()));
    if (ComputeDigest(m.result) != m.result_digest) {
      return;  // result does not match its digest: bogus
    }
  }

  ReplyRecord& rec = replies_[static_cast<size_t>(config_->ReplicaIndex(m.replica))];
  rec.present = true;
  rec.result_digest = m.result_digest;
  rec.tentative = m.tentative;
  rec.has_result = m.has_result;
  rec.result = std::move(m.result);
  rec.view = m.view;

  // Track the view (and hence the primary) from replies.
  view_ = std::max(view_, m.view);

  // Certificate check: f+1 matching non-tentative replies, or 2f+1 matching replies when any
  // of them are tentative (and always 2f+1 on the read-only path). Each distinct digest is
  // tallied once, at its first slot.
  for (size_t i = 0; i < replies_.size(); ++i) {
    const ReplyRecord& first = replies_[i];
    if (!first.present) {
      continue;
    }
    const Digest& digest = first.result_digest;
    bool seen = false;
    int total = 0;
    int non_tentative = 0;
    for (size_t j = 0; j < replies_.size(); ++j) {
      const ReplyRecord& rep = replies_[j];
      if (rep.present && rep.result_digest == digest) {
        seen = seen || j < i;
        ++total;
        non_tentative += rep.tentative ? 0 : 1;
      }
    }
    bool strong_ok = total >= config_->quorum();
    bool weak_ok = non_tentative >= config_->weak() && !current_read_only_path_;
    if (seen || (!strong_ok && !weak_ok)) {
      continue;
    }
    // Find the full result among the matching replies.
    for (ReplyRecord& rep : replies_) {
      if (rep.present && rep.result_digest == digest && rep.has_result) {
        Complete(std::move(rep.result));
        return;
      }
    }
    // Certificate complete but the designated replier's full result is missing: ask everyone
    // now rather than at the retry timer, which would add latency when the designated replier
    // is faulty.
    obs_.result_refetches->Inc();
    current_.designated_replier = kEveryone;
    SendCurrentRequest(/*broadcast=*/true);
    return;
  }
}

void Client::ClearReplies() {
  for (ReplyRecord& rep : replies_) {
    rep.present = false;
  }
}

void Client::Complete(Bytes result) {
  busy_ = false;
  if (retry_timer_running_) {
    CancelTimer(retry_timer_);
    retry_timer_running_ = false;
  }
  ++stats_.ops_completed;
  stats_.last_latency = Now() - issued_at_;
  stats_.total_latency += stats_.last_latency;
  obs_.ops->Inc();
  obs_.latency->Record(static_cast<uint64_t>(stats_.last_latency / kMicrosecond));
  if (tracer_ != nullptr && tracer_->enabled() &&
      tracer_->Sampled(current_.client, current_.timestamp)) {
    tracer_->Stamp(TracePhase::kCertified, current_.client, current_.timestamp, Now());
  }
  Callback cb = std::move(callback_);
  callback_ = nullptr;
  ClearReplies();
  if (cb) {
    cb(std::move(result));
  }
}

}  // namespace bft
