// Workloads, load generator and correctness oracle of the PBFT benchmark.
//
// Load comes from exactly four client identities, each with one operation outstanding (the
// paper's well-formedness rule, which Client::Invoke enforces). Every identity runs on its own
// client event loop: a closed loop re-invokes from the completion callback, an open loop
// schedules a seeded Poisson arrival stream with SetTimer and queues arrivals that find the
// identity busy. No harness thread per client and no RtCluster::Execute while measuring.
//
// Keys are partitioned per identity, so a sequential model per key is an exact oracle: every
// PUT must certify "ok" and every GET must certify the identity's last certified write.
#ifndef PBFT_BENCH_LOADGEN_H_
#define PBFT_BENCH_LOADGEN_H_

#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/rt_cluster.h"
#include "src/service/kv_service.h"
#include "src/service/null_service.h"

namespace pbft_bench {

using bft::Bytes;
using bft::ByteView;
using bft::Client;
using bft::NodeId;
using bft::Rng;
using bft::RtCluster;
using bft::RtClusterOptions;
using bft::RtNode;
using bft::SimTime;
using bft::kMillisecond;
using bft::kSecond;

constexpr int kIdentities = 4;
constexpr int kKeysPerIdentity = 250;
constexpr size_t kValueBytes = 64;
constexpr size_t kBulkBytes = 4096;  // the paper's 4/0 and 0/4 operations
constexpr uint64_t kClusterSeed = 7;

// One workload. Names are stable identifiers: BENCHMARK.json and later comparisons cite them.
struct Spec {
  const char* name;
  bool open_loop;
  double rate;           // offered ops/s over all identities (open loop only)
  double read_fraction;  // share of read-only operations
  bool zipf;             // zipf 0.99 within each identity's keys, else uniform
  bool null_service;     // NullService 4/0 writes and 0/4 reads instead of the KV store
  RtClusterOptions::TransportKind transport;
  bool formation;
  bool primary_crash;    // fault timers, and the primary crashes and restarts in each window
};

inline const Spec kSpecs[] = {
    {"write_closed", false, 0, 0.0, false, false, RtClusterOptions::TransportKind::kUdp, true,
     false},
    {"mixed_open", true, 4000, 0.5, true, false, RtClusterOptions::TransportKind::kUdp, true,
     false},
    {"bulk_inproc", false, 0, 0.5, false, true, RtClusterOptions::TransportKind::kInProc,
     false, false},
    {"primary_crash", true, 2000, 0.0, false, false, RtClusterOptions::TransportKind::kUdp,
     true, true},
};

inline const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

inline RtClusterOptions ClusterOptions(const Spec& spec) {
  RtClusterOptions options;
  options.config.n = 4;
  options.config.batching = true;
  options.seed = kClusterSeed;
  options.transport = spec.transport;
  options.formation = spec.formation;
  if (spec.primary_crash) {
    // Fault timers sized for a crash: a view change within a few hundred ms of a dead
    // primary, far above loopback latency so the fault-free part stays in one view.
    options.config.view_change_timeout = 400 * kMillisecond;
    options.config.max_view_change_timeout = 5 * kSecond;
    options.config.client_retry_timeout = 100 * kMillisecond;
    options.config.max_client_retry_timeout = 2 * kSecond;
  } else {
    // Real time burns here: a short fault timeout would let one scheduler stall on a loaded
    // machine fake a faulty primary mid-measurement.
    options.config.view_change_timeout = 10 * kSecond;
    options.config.max_view_change_timeout = 60 * kSecond;
    options.config.client_retry_timeout = 2 * kSecond;
  }
  return options;
}

// Monotonic clock in the runtime's time base: RtNode::Now() counts from a process-wide epoch
// private to the runtime, so the offset is measured once against a live node.
class BenchClock {
 public:
  void Calibrate(const RtNode& node) {
    int64_t best = INT64_MAX;
    for (int i = 0; i < 16; ++i) {
      int64_t before = SteadyNs();
      int64_t sim = static_cast<int64_t>(node.Now());
      int64_t after = SteadyNs();
      if (after - before < best) {
        best = after - before;
        offset_ = before + (after - before) / 2 - sim;
      }
    }
  }
  SimTime Now() const { return static_cast<SimTime>(SteadyNs() - offset_); }

 private:
  static int64_t SteadyNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  int64_t offset_ = 0;
};

// Start/end of each Service::Execute on one replica, recorded by the decorator below while
// `recording` is set. Written only by that replica's loop thread (a restarted replica's new
// loop starts after the old one was joined); read after the cluster stops.
struct ExecLog {
  struct Entry {
    NodeId client;
    SimTime start;
    SimTime end;
  };
  std::atomic<uint64_t> calls{0};
  std::vector<Entry> entries;
};

// Bench-side Service decorator passed through the service factory: counts and (when the run
// is traced) times every Execute, forwarding everything else unchanged.
class TimedService final : public bft::Service {
 public:
  TimedService(std::unique_ptr<bft::Service> inner, ExecLog* log,
               const std::atomic<bool>* recording, const BenchClock* clock)
      : inner_(std::move(inner)), log_(log), recording_(recording), clock_(clock) {}

  void Initialize(bft::ReplicaState* state) override { inner_->Initialize(state); }
  Bytes Execute(NodeId client, ByteView op, ByteView ndet, bool read_only) override {
    log_->calls.fetch_add(1, std::memory_order_relaxed);
    if (!recording_->load(std::memory_order_relaxed)) {
      return inner_->Execute(client, op, ndet, read_only);
    }
    SimTime start = clock_->Now();
    Bytes result = inner_->Execute(client, op, ndet, read_only);
    log_->entries.push_back({client, start, clock_->Now()});
    return result;
  }
  bool IsReadOnly(ByteView op) const override { return inner_->IsReadOnly(op); }
  std::optional<Bytes> KeyOf(ByteView op) const override { return inner_->KeyOf(op); }
  bool IsAdminOp(ByteView op) const override { return inner_->IsAdminOp(op); }
  Bytes ChooseNonDet(bft::SeqNo seq, SimTime now) override {
    return inner_->ChooseNonDet(seq, now);
  }
  bool CheckNonDet(ByteView ndet, SimTime now) const override {
    return inner_->CheckNonDet(ndet, now);
  }
  SimTime ExecutionCost(ByteView op) const override { return inner_->ExecutionCost(op); }

 private:
  std::unique_ptr<bft::Service> inner_;
  ExecLog* log_;
  const std::atomic<bool>* recording_;
  const BenchClock* clock_;
};

// Flags the measuring thread flips while the identities run.
struct Control {
  std::atomic<bool> traced{false};   // record Invoke durations and Execute spans
};

// One measured operation. Times are in the runtime's clock (ns).
struct OpRecord {
  SimTime due = 0;         // open loop: scheduled arrival; closed loop: previous completion
  SimTime invoke = 0;
  SimTime invoke_end = 0;  // traced windows only
  SimTime done = 0;        // 0 while uncertified
  uint64_t timestamp = 0;  // the client's request timestamp (its count of Invoke calls)
  bool ok = false;         // certified with the result the model predicts
};

// When each arrival (open loop) or re-invoke (closed loop) was due and when the generator
// got to it, with the identity's local backlog at that moment.
struct ArrivalRecord {
  SimTime due;
  SimTime fired;
  uint32_t backlog;
};

// Zipf(theta) over [0, n) by inverse CDF; rank 0 is the hottest key.
class ZipfKeys {
 public:
  ZipfKeys(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  size_t Draw(Rng& rng) const {
    double u = rng.Uniform();
    size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// One client identity: its op stream, its arrival process, its model of its own keys, and
// the records the measurement is computed from. Everything but the atomics is touched only
// on the identity's client loop thread until the cluster stops.
class Identity {
 public:
  Identity(int index, Client* client, const Spec& spec, uint64_t seed, Control* control)
      : index_(index),
        client_(client),
        node_(static_cast<RtNode*>(client->endpoint())),
        spec_(spec),
        control_(control),
        op_rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index) + 1),
        arrival_rng_(seed * 0xd1342543de82ef95ULL + static_cast<uint64_t>(index) + 101),
        zipf_(kKeysPerIdentity, 0.99),
        model_(kKeysPerIdentity) {}

  Client* client() const { return client_; }
  RtNode* node() const { return node_; }
  pid_t tid() const { return tid_.load(); }

  // The op Setup certifies through RtCluster::Execute: reads the identity's first key (or a
  // NullService 0/0 write), so the model is unchanged.
  Bytes SetupOp() const {
    return spec_.null_service ? bft::NullService::MakeOp(false, 0, 0)
                              : bft::KvService::GetOp(bft::ToBytes(Key(0)));
  }
  void CountSetupInvoke() { ++invokes_; }

  // Learns the loop's tid and lowers its timer slack (the default 50 us slack showed up as
  // generator lateness), then starts the load.
  void Start() {
    node_->Post([this]() {
      tid_.store(gettid());
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      SimTime now = node_->Now();
      if (spec_.open_loop) {
        next_due_ = now;
        ScheduleArrival();
      } else {
        queue_.push_back(now);
        arrivals_.push_back({now, now, 0});
        IssueNext();
      }
    });
  }

  // Ends the load: no new arrivals or re-invokes, while queued ops still run. It takes
  // effect on the identity's own loop, between two of its events, so an arrival already
  // under way finishes first and is counted in pending(). stopped() tells when it has.
  void Stop() {
    node_->Post([this]() {
      stop_ = true;
      UpdatePending(client_->busy() ? 1 : 0);
      stopped_.store(true);
    });
  }
  bool stopped() const { return stopped_.load(); }

  // Queued plus outstanding ops; 0 once a stopped identity has drained.
  uint32_t pending() const { return pending_.load(); }

  // Re-reads every key this identity wrote through the ordered path and compares with the
  // model. Call after draining; sets audit_done() when every read has come back.
  void StartAudit() {
    node_->Post([this]() {
      if (client_->busy()) {
        // Invoke would replace the outstanding op, which the replicas may still execute.
        Fail("audit: started with an op still outstanding");
        return;
      }
      for (size_t k = 0; k < model_.size(); ++k) {
        if (!model_[k].empty()) {
          audit_keys_.push_back(k);
        }
      }
      audit_size_.store(audit_keys_.size());
      AuditNext();
    });
  }
  bool audit_done() const { return audit_done_.load(); }
  uint64_t audit_size() const { return audit_size_.load(); }  // keys to re-read
  uint64_t audited() const { return audited_.load(); }        // reads that came back

  // Read after the cluster has stopped.
  const std::vector<OpRecord>& records() const { return records_; }
  const std::vector<ArrivalRecord>& arrivals() const { return arrivals_; }
  uint64_t wrong_results() const { return wrong_; }
  const std::string& first_error() const { return first_error_; }

 private:
  struct PendingOp {
    bool read_only = false;
    size_t key = 0;
    std::string value;  // PUT: the value written; GET: the value the model expects
  };

  std::string Key(size_t k) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k%d-%03zu", index_, k);
    return buf;
  }

  // 64 bytes naming the writer and its sequence number, padded with seeded letters.
  std::string MakeValue() {
    char head[48];
    int n = std::snprintf(head, sizeof(head), "c%d.s%llu.", index_,
                          static_cast<unsigned long long>(invokes_ + 1));
    std::string v(head, static_cast<size_t>(n));
    while (v.size() < kValueBytes) {
      v.push_back(static_cast<char>('a' + op_rng_.Below(26)));
    }
    return v;
  }

  Bytes NextOp(PendingOp* p) {
    p->read_only = spec_.read_fraction > 0 && op_rng_.Chance(spec_.read_fraction);
    if (spec_.null_service) {
      return p->read_only ? bft::NullService::MakeOp(true, 0, kBulkBytes)
                          : bft::NullService::MakeOp(false, kBulkBytes, 0);
    }
    p->key = spec_.zipf ? zipf_.Draw(op_rng_) : op_rng_.Below(kKeysPerIdentity);
    if (p->read_only) {
      p->value = model_[p->key];
      return bft::KvService::GetOp(bft::ToBytes(Key(p->key)));
    }
    p->value = MakeValue();
    return bft::KvService::PutOp(bft::ToBytes(Key(p->key)), bft::ToBytes(p->value));
  }

  bool Check(const PendingOp& p, const Bytes& result) {
    if (spec_.null_service) {
      if (!p.read_only) {
        return result.empty();
      }
      if (result.size() != kBulkBytes) {
        return false;
      }
      for (uint8_t b : result) {
        if (b != 0xcd) {
          return false;
        }
      }
      return true;
    }
    if (p.read_only) {
      return bft::ToString(result) == p.value;
    }
    if (bft::ToString(result) != "ok") {
      return false;
    }
    model_[p.key] = p.value;
    return true;
  }

  void Fail(const std::string& what) {
    ++wrong_;
    if (first_error_.empty()) {
      first_error_ = what;
    }
  }

  void ScheduleArrival() {
    // Exponential inter-arrival times at rate/4 per identity, drawn from their own stream so
    // op content does not depend on timing.
    double per_identity = spec_.rate / kIdentities;
    double gap_s = -std::log(1.0 - arrival_rng_.Uniform()) / per_identity;
    next_due_ += static_cast<SimTime>(gap_s * 1e9);
    SimTime now = node_->Now();
    node_->SetTimer(next_due_ > now ? next_due_ - now : 0, [this]() { Arrive(); });
  }

  void Arrive() {
    if (stop_) {
      return;
    }
    arrivals_.push_back({next_due_, node_->Now(), static_cast<uint32_t>(queue_.size())});
    queue_.push_back(next_due_);
    ScheduleArrival();
    if (!client_->busy()) {
      IssueNext();
    } else {
      UpdatePending(1);
    }
  }

  void IssueNext() {
    SimTime due = queue_.front();
    queue_.pop_front();
    current_ = PendingOp{};
    Bytes op = NextOp(&current_);
    OpRecord rec;
    rec.due = due;
    rec.timestamp = ++invokes_;
    rec.invoke = node_->Now();
    records_.push_back(rec);
    UpdatePending(1);
    client_->Invoke(std::move(op), current_.read_only, [this](Bytes r) { OnReply(r); });
    if (control_->traced.load(std::memory_order_relaxed)) {
      records_.back().invoke_end = node_->Now();
    }
  }

  void OnReply(const Bytes& result) {
    SimTime now = node_->Now();
    OpRecord& rec = records_.back();
    rec.done = now;
    rec.ok = Check(current_, result);
    if (!rec.ok) {
      Fail((current_.read_only ? "read of " : "write of ") +
           (spec_.null_service ? std::string("bulk op") : Key(current_.key)) + " certified \"" +
           bft::ToString(result).substr(0, 80) + "\", model expects \"" +
           (current_.read_only ? current_.value : std::string("ok")).substr(0, 80) + "\"");
    }
    if (!spec_.open_loop && !stop_) {
      queue_.push_back(now);
    }
    if (!queue_.empty()) {
      if (!spec_.open_loop) {
        arrivals_.push_back({now, node_->Now(), 0});
      }
      IssueNext();
    } else {
      UpdatePending();
    }
  }

  void UpdatePending(uint32_t outstanding = 0) {
    pending_.store(static_cast<uint32_t>(queue_.size()) + outstanding);
  }

  void AuditNext() {
    if (audit_pos_ >= audit_keys_.size()) {
      audit_done_.store(true);
      return;
    }
    size_t k = audit_keys_[audit_pos_++];
    ++invokes_;
    client_->Invoke(bft::KvService::GetOp(bft::ToBytes(Key(k))), /*read_only=*/false,
                    [this, k](Bytes r) {
                      audited_.fetch_add(1);
                      if (bft::ToString(r) != model_[k]) {
                        Fail("audit: " + Key(k) + " holds \"" + bft::ToString(r).substr(0, 80) +
                             "\", last certified write was \"" + model_[k] + "\"");
                      }
                      AuditNext();
                    });
  }

  const int index_;
  Client* const client_;
  RtNode* const node_;
  const Spec& spec_;
  Control* const control_;
  Rng op_rng_;
  Rng arrival_rng_;
  ZipfKeys zipf_;
  std::vector<std::string> model_;  // last certified value per key; "" = never written

  std::atomic<pid_t> tid_{0};
  bool stop_ = false;
  std::atomic<bool> stopped_{false};
  std::atomic<uint32_t> pending_{0};
  std::deque<SimTime> queue_;  // due times of arrivals not yet invoked
  SimTime next_due_ = 0;
  PendingOp current_;
  uint64_t invokes_ = 0;
  std::vector<OpRecord> records_;
  std::vector<ArrivalRecord> arrivals_;
  uint64_t wrong_ = 0;
  std::string first_error_;
  std::vector<size_t> audit_keys_;
  size_t audit_pos_ = 0;
  std::atomic<uint64_t> audit_size_{0};
  std::atomic<uint64_t> audited_{0};
  std::atomic<bool> audit_done_{false};
};

// A cluster with its identities and service decorators. The identities and logs are declared
// before the cluster, so the cluster (and every loop thread calling into them) goes first.
class Harness {
 public:
  Harness(const Spec& spec, uint64_t seed, Control* control, const BenchClock* clock)
      : spec_(spec) {
    for (int i = 0; i < 4; ++i) {
      exec_logs_.push_back(std::make_unique<ExecLog>());
    }
    cluster_ = std::make_unique<RtCluster>(
        ClusterOptions(spec), [this, control, clock](NodeId id) -> std::unique_ptr<bft::Service> {
          std::unique_ptr<bft::Service> inner;
          if (spec_.null_service) {
            inner = std::make_unique<bft::NullService>();
          } else {
            inner = std::make_unique<bft::KvService>();
          }
          return std::make_unique<TimedService>(std::move(inner),
                                                exec_logs_[static_cast<size_t>(id)].get(),
                                                &control->traced, clock);
        });
    for (int c = 0; c < kIdentities; ++c) {
      Client* client = cluster_->AddClient();
      if (spec.primary_crash) {
        bft::ClientConfig cc;
        cc.retry_timeout = 100 * kMillisecond;
        cc.max_retry_timeout = 2 * kSecond;
        client->set_client_config(cc);
      }
      identities_.push_back(std::make_unique<Identity>(c, client, spec, seed, control));
    }
  }

  // Starts the loops and certifies one op per identity. False if any op fails.
  bool Setup() {
    cluster_->Start();
    for (auto& id : identities_) {
      id->CountSetupInvoke();
      std::optional<Bytes> r = cluster_->Execute(id->client(), id->SetupOp(), false, 10 * kSecond);
      if (!r.has_value() || !r->empty()) {  // a fresh key reads "", a 0/0 op returns nothing
        return false;
      }
    }
    return true;
  }

  RtCluster& cluster() { return *cluster_; }
  std::vector<std::unique_ptr<Identity>>& identities() { return identities_; }
  const ExecLog& exec_log(int replica) const { return *exec_logs_[static_cast<size_t>(replica)]; }

 private:
  const Spec& spec_;
  std::vector<std::unique_ptr<ExecLog>> exec_logs_;
  std::vector<std::unique_ptr<Identity>> identities_;
  std::unique_ptr<RtCluster> cluster_;
};

}  // namespace pbft_bench

#endif  // PBFT_BENCH_LOADGEN_H_
