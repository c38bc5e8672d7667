#include "src/runtime/rt_cluster.h"

#include <chrono>
#include <cstdio>

#include "src/common/thread_annotations.h"

namespace bft {

namespace {

// The node whose loop runs `automaton` (a Replica or Client): every endpoint here is an RtNode.
template <typename Automaton>
RtNode* LoopOf(Automaton* automaton) {
  return static_cast<RtNode*>(automaton->endpoint());
}

// Builds the transport stack. The fault layer is always in it: disarmed it forwards after one
// relaxed atomic load, so the happy path (and pbft_bench) pays nothing measurable. Formation
// wraps it, so injected faults hit fully-formed wire datagrams.
std::unique_ptr<Transport> MakeTransport(const RtClusterOptions& options,
                                         MetricsRegistry* metrics, FaultTransport** fault_out) {
  std::unique_ptr<Transport> transport;
  if (options.transport == RtClusterOptions::TransportKind::kUdp) {
    transport = std::make_unique<UdpTransport>();
  } else {
    transport = std::make_unique<InProcTransport>();
  }
  uint64_t fault_seed =
      options.fault_seed != 0 ? options.fault_seed : options.seed ^ 0xfa517fa517fa517bULL;
  auto fault = std::make_unique<FaultTransport>(std::move(transport), fault_seed);
  *fault_out = fault.get();
  transport = std::move(fault);
  if (options.formation) {
    transport = std::make_unique<FormationTransport>(std::move(transport));
  }
  transport->InstallMetrics(metrics);
  return transport;
}

// A harness thread waiting on work posted to a node's loop. Finish is called once, on the
// loop, by the task or by a callback it armed; Execute passes the reply, RunOn nothing.
struct Rendezvous {
  Mutex mu;
  CondVar cv;
  bool done BFT_GUARDED_BY(mu) = false;
  std::optional<Bytes> result BFT_GUARDED_BY(mu);

  void Finish(std::optional<Bytes> r = std::nullopt) {
    {
      MutexLock lock(mu);
      done = true;
      result = std::move(r);
    }
    cv.NotifyAll();
  }
};

// Posts `task` onto `node`'s loop and blocks until the rendezvous finishes or `deadline`
// passes (none: wait for good), then returns its result. Shared, not stack-captured: on
// timeout the task may still finish the rendezvous after this frame is gone.
std::optional<Bytes> PostAndWait(
    RtNode* node, std::function<void(const std::shared_ptr<Rendezvous>&)> task,
    std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt) {
  auto rv = std::make_shared<Rendezvous>();
  if (!node->Post([task = std::move(task), rv]() { task(rv); })) {
    return std::nullopt;  // the loop is stopped: the task was rejected and will never run
  }
  MutexLock lock(rv->mu);
  while (!rv->done) {
    if (!deadline.has_value()) {
      rv->cv.Wait(rv->mu);
    } else if (!rv->cv.WaitUntil(rv->mu, *deadline)) {
      break;  // timed out; the read below sees whatever arrived before the relock
    }
  }
  return std::move(rv->result);
}

}  // namespace

RtCluster::RtCluster(RtClusterOptions options, ServiceFactory factory)
    : options_(options),
      transport_(MakeTransport(options_, &metrics_, &fault_)),
      group_(options.config, &options_.model, options.seed, std::move(factory),
             [this](NodeId id) {
               return std::make_unique<RtNode>(id, transport_.get(), options_.seed);
             },
             &metrics_, &tracer_) {
  tracer_.InstallMetrics(&metrics_);
}

RtCluster::~RtCluster() { Stop(); }

Client* RtCluster::AddClient() {
  if (started_) {
    // Key generation writes the shared directory, which running loops read concurrently;
    // a hard stop beats the silent never-started-loop hang an assert would compile out to.
    std::fprintf(stderr, "RtCluster: AddClient() must precede Start()\n");
    std::abort();
  }
  clients_.push_back(group_.MakeClient(next_client_id_++));
  return clients_.back().get();
}

void RtCluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  group_.Start();  // arms status (and recovery) timers; loops are not running yet
  for (int i = 0; i < num_replicas(); ++i) {
    LoopOf(replica(i))->Start();
  }
  for (auto& client : clients_) {
    LoopOf(client.get())->Start();
  }
}

void RtCluster::Stop() {
  for (auto& client : clients_) {
    LoopOf(client.get())->Stop();
  }
  for (int i = 0; i < num_replicas(); ++i) {
    if (replica_running(i)) {
      LoopOf(replica(i))->Stop();
    }
  }
  started_ = false;
}

void RtCluster::CrashReplica(int i) {
  if (!replica_running(i)) {
    return;
  }
  // The replica's mac-cache probes capture the object being destroyed, and an admin export
  // may race this crash. Overwrite them (RegisterProbe replaces by name+labels) with the
  // final values first — the totals stay monotonic across the outage, like a scrape of a
  // dead machine's last known counters.
  std::string node = "node=\"" + std::to_string(config().ReplicaId(i)) + "\"";
  uint64_t hits = replica(i)->auth().mac_cache_hits();
  uint64_t misses = replica(i)->auth().mac_cache_misses();
  metrics_.RegisterProbe("bft_mac_cache_hits_total", node, [hits]() { return hits; });
  metrics_.RegisterProbe("bft_mac_cache_misses_total", node, [misses]() { return misses; });
  // ~Replica closes its endpoint: the loop stops, the node unregisters from the transport
  // (waiting out in-flight deliveries), and all volatile state dies with the object.
  group_.Destroy(i);
}

void RtCluster::RestartReplica(int i) {
  if (replica_running(i)) {
    return;
  }
  // The replica starts from view 0 with empty state and learns the group's real view and
  // checkpoint through the status exchange.
  Replica* restarted = group_.Build(i);
  if (started_) {
    restarted->Start();
    LoopOf(restarted)->Start();
  }
}

std::optional<Bytes> RtCluster::Execute(Client* client, Bytes op, bool read_only,
                                        SimTime timeout) {
  auto task = [client, op = std::move(op),
               read_only](const std::shared_ptr<Rendezvous>& rv) mutable {
    if (client->busy()) {
      // A previous Execute timed out and its request is still in flight; Invoke allows only
      // one outstanding op per client. Refuse cleanly (checked on the client's own loop
      // thread, where busy_ is safe to read) instead of clobbering the live request.
      rv->Finish();
      return;
    }
    client->Invoke(std::move(op), read_only, [rv](Bytes r) { rv->Finish(std::move(r)); });
  };
  return PostAndWait(LoopOf(client), std::move(task),
                     std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout));
}

void RtCluster::RunOn(int i, std::function<void()> fn) {
  if (!replica_running(i)) {
    return;  // crashed: there is no loop to run on
  }
  // An accepted post always runs (the loop drains tasks on stop), so waiting without a
  // deadline is safe — and required: `fn` may capture the caller's stack.
  PostAndWait(LoopOf(replica(i)),
              [fn = std::move(fn)](const std::shared_ptr<Rendezvous>& rv) {
                fn();
                rv->Finish();
              });
}

HealthSnapshot RtCluster::Health() {
  HealthSnapshot snapshot;
  for (int i = 0; i < num_replicas(); ++i) {
    // A crashed replica (RunOn no-ops) keeps this row: its id, running=false.
    ReplicaHealth row{.id = config().ReplicaId(i)};
    if (started_) {
      RunOn(i, [this, i, &row]() { row = group_.HealthOf(i); });  // on the replica's loop
    } else {
      row = group_.HealthOf(i);  // loops not running (pre-Start or post-Stop): single-threaded
    }
    snapshot.replicas.push_back(row);
  }
  snapshot.faults_armed = fault_->armed();
  snapshot.faults_injected = fault_->injected_count();
  return snapshot;
}

}  // namespace bft
