// BFT client proxy (Section 2.3.2 and the Section 5.1 optimizations as seen by clients).
//
// Invoke() sends a request to the primary (read-write) or multicasts it (read-only), collects
// a reply certificate — f+1 matching non-tentative replies, or 2f+1 matching tentative /
// read-only replies — verifies result digests, and delivers the result via callback.
// Retransmission: on timeout the request is multicast to all replicas with the designated-
// replier field widened so every replica returns the full result.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/auth.h"
#include "src/core/config.h"
#include "src/core/endpoint.h"
#include "src/core/messages.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace bft {

class Client {
 public:
  using Callback = std::function<void(Bytes result)>;

  // The client owns its endpoint; it installs itself as the message handler and from then on
  // speaks only to the Endpoint seam.
  Client(std::unique_ptr<Endpoint> endpoint, const ReplicaConfig* config,
         const PerfModel* model, PublicKeyDirectory* directory, uint64_t seed);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  NodeId id() const { return ep_->id(); }
  CpuMeter& cpu() { return ep_->cpu(); }
  Endpoint* endpoint() { return ep_.get(); }

  // Issues one operation. At most one operation may be outstanding (the paper's
  // well-formedness condition); Invoke() while busy is a programming error.
  void Invoke(Bytes op, bool read_only, Callback callback);

  bool busy() const { return busy_; }
  View known_view() const { return view_; }

  // Overrides the retransmission backoff base/cap/jitter for this client (zero fields keep
  // the ReplicaConfig defaults). Call before the first Invoke — construction-time tuning,
  // like key distribution, not a runtime protocol.
  void set_client_config(const ClientConfig& config) {
    client_config_ = config;
    retry_timeout_ = RetryBase();
  }

  // Re-points the client's metric instruments (and optional tracer) at a harness-owned
  // registry. The constructor wires the process-wide default, so the instrument pointers are
  // always valid and the hot path never branches on null.
  void InstallObservability(MetricsRegistry* registry, RequestTracer* tracer);

  // The operation most recently passed to Invoke(), valid until the next Invoke() —
  // including inside the completion callback. The shard router reads it back to re-dispatch
  // a stale-routed op, so the routing hot path never keeps a defensive copy.
  ByteView current_op() const { return current_.op; }

  struct Stats {
    uint64_t ops_completed = 0;
    uint64_t retransmissions = 0;
    // Retransmissions beyond the first for one operation. The first timeout is
    // indistinguishable from datagram loss; when the broadcast retransmission *also* fails
    // to certify, each further broadcast is acting as a view-change probe — backups relay it
    // to the primary and start their view-change timers (Section 4.4) — so these are counted
    // separately from plain loss recovery.
    uint64_t view_probes = 0;
    // Operations with no routing key (Service::KeyOf returned nullopt). A bare Client never
    // sets this; the shard router (ShardedClient) counts the ops it pins to the home shard
    // under its documented keyless policy and surfaces the total via AggregateStats().
    uint64_t keyless_ops = 0;
    SimTime total_latency = 0;
    SimTime last_latency = 0;
  };
  const Stats& stats() const { return stats_; }

  void OnMessage(MsgBuffer message);

 private:
  void SendCurrentRequest(bool broadcast);
  void OnRetryTimer();
  void Complete(Bytes result);

  SimTime Now() const { return ep_->Now(); }
  void SendTo(NodeId dst, MsgBuffer msg) { ep_->Send(dst, std::move(msg)); }
  void MulticastTo(const std::vector<NodeId>& dsts, const MsgBuffer& msg) {
    ep_->Multicast(dsts, msg);
  }
  Endpoint::TimerId SetTimer(SimTime delay, std::function<void()> fn) {
    return ep_->SetTimer(delay, std::move(fn));
  }
  void CancelTimer(Endpoint::TimerId id) { ep_->CancelTimer(id); }

  // Pre-resolved instruments; see InstallObservability.
  struct Obs {
    Counter* ops = nullptr;
    Counter* retransmissions = nullptr;
    Counter* view_probes = nullptr;
    Counter* result_refetches = nullptr;
    Histogram* latency = nullptr;
  };

  // Resolved backoff parameters: per-client override, else the group config.
  SimTime RetryBase() const {
    return client_config_.retry_timeout != 0 ? client_config_.retry_timeout
                                             : config_->client_retry_timeout;
  }
  SimTime RetryCap() const {
    return client_config_.max_retry_timeout != 0 ? client_config_.max_retry_timeout
                                                 : config_->max_client_retry_timeout;
  }

  std::unique_ptr<Endpoint> ep_;
  const ReplicaConfig* config_;
  ClientConfig client_config_;
  const PerfModel* model_;
  AuthContext auth_;
  Rng rng_;
  Stats stats_;
  Obs obs_;
  RequestTracer* tracer_ = nullptr;

  View view_ = 0;
  uint64_t last_timestamp_ = 0;
  bool busy_ = false;
  RequestMsg current_;
  // current_.RequestDigest(), computed once per Invoke: retransmissions change only header
  // fields the digest does not cover.
  Digest current_digest_;
  Callback callback_;
  SimTime issued_at_ = 0;
  SimTime retry_timeout_;
  uint64_t retries_this_op_ = 0;
  Endpoint::TimerId retry_timer_ = 0;
  bool retry_timer_running_ = false;
  bool current_read_only_path_ = false;

  // The replies to the current request, one slot per replica (by ReplicaIndex); a later
  // reply from a replica replaces its earlier one.
  struct ReplyRecord {
    bool present = false;
    Digest result_digest;
    bool tentative = false;
    bool has_result = false;
    Bytes result;
    View view = 0;
  };
  std::vector<ReplyRecord> replies_;
  void ClearReplies();
  // config_->ReplicaIds(), computed once: every broadcast goes to all of them.
  std::vector<NodeId> replica_ids_;
};

}  // namespace bft

#endif  // SRC_CORE_CLIENT_H_
