// Test/benchmark harness: one replica group plus clients on one simulated network.
//
// The group is a ReplicaGroup (src/workload/replica_group.h), which owns how a group is wired;
// this harness supplies the simulator Nodes and runs the simulator for its callers.
#ifndef SRC_WORKLOAD_CLUSTER_H_
#define SRC_WORKLOAD_CLUSTER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/model/perf_model.h"
#include "src/sim/network.h"
#include "src/workload/replica_group.h"

namespace bft {

// Synchronously executes one operation through `client` (Client or ShardedClient): runs the
// simulator until the reply certificate completes or `timeout` of simulated time passes.
template <typename ClientT>
std::optional<Bytes> ExecuteOnSim(Simulator& sim, ClientT* client, Bytes op, bool read_only,
                                  SimTime timeout) {
  // Shared, not stack-captured: on timeout the client still holds the callback, which may
  // fire during a later simulator run after this frame is gone.
  auto result = std::make_shared<std::optional<Bytes>>();
  client->Invoke(std::move(op), read_only, [result](Bytes r) { *result = std::move(r); });
  sim.RunUntilCondition([result]() { return result->has_value(); }, sim.Now() + timeout);
  return *result;
}

struct ClusterOptions {
  ReplicaConfig config;
  PerfModel model;
  uint64_t seed = 42;
};

class Cluster {
 public:
  Cluster(ClusterOptions options, ServiceFactory factory);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  const ReplicaConfig& config() const { return group_.config(); }
  const PerfModel& model() const { return options_.model; }

  Replica* replica(int i) { return group_.replica(i); }
  int num_replicas() const { return options_.config.n; }

  Client* AddClient();
  Client* client(size_t i) { return clients_[i].get(); }
  size_t num_clients() const { return clients_.size(); }

  // Synchronously executes one operation through `client` (see ExecuteOnSim).
  std::optional<Bytes> Execute(Client* client, Bytes op, bool read_only = false,
                               SimTime timeout = 30 * kSecond) {
    return ExecuteOnSim(sim_, client, std::move(op), read_only, timeout);
  }

  // Runs the simulator until every live replica's last_executed() reaches `seq` (or timeout).
  bool WaitForExecution(SeqNo seq, SimTime timeout = 30 * kSecond) {
    return sim_.RunUntilCondition([this, seq]() { return group_.ExecutedThrough(seq); },
                                  sim_.Now() + timeout);
  }

  // Node id of the current primary according to the first live replica.
  NodeId CurrentPrimary() const { return group_.CurrentPrimary(); }

  // Harness-owned observability: every replica and client reports here, so exports see only
  // this cluster (not the process-wide default, which aggregates every component ever built
  // in the process).
  MetricsRegistry& metrics() { return metrics_; }
  RequestTracer& tracer() { return tracer_; }

  // The /healthz document for this group (single-threaded harness: call between sim steps).
  HealthSnapshot Health() const {
    HealthSnapshot snapshot;
    group_.AppendHealth(&snapshot);
    return snapshot;
  }

 private:
  ClusterOptions options_;
  // Declared before the group and clients so it is destroyed after them: their metric
  // pointers (and registered probes) reference this registry until they die.
  MetricsRegistry metrics_;
  RequestTracer tracer_;
  Simulator sim_;
  Network net_;
  ReplicaGroup group_;
  std::vector<std::unique_ptr<Client>> clients_;
  NodeId next_client_id_ = kClientIdBase;
};

}  // namespace bft

#endif  // SRC_WORKLOAD_CLUSTER_H_
