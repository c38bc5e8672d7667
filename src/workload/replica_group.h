// One PBFT replica group, wired the same way on every runtime.
//
// A group owns its ReplicaConfig, its key directory and its 3f+1 replicas, and it is the one
// place that states how a group is built:
//   - replica ids are [config.base_id, base_id + n);
//   - a replica's seed is `seed + id`, a client's is `seed ^ (id * 0x2545f4914f6cdd1d)`;
//   - every replica and client reports into the harness's registry and tracer;
//   - the group is read through its first live replica (crashed replicas are frozen in their
//     pre-crash view and counters).
// The runtime enters only through the endpoint factory: Cluster and ShardedCluster hand it
// simulator Nodes, RtCluster real-clock RtNodes. So one shard of a ShardedCluster is wired
// exactly like a Cluster, and a real-clock restart rebuilds a replica exactly as it was built.
#ifndef SRC_WORKLOAD_REPLICA_GROUP_H_
#define SRC_WORKLOAD_REPLICA_GROUP_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/client.h"
#include "src/core/replica.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace bft {

// Builds the replicated service for one replica (`replica` is its node id).
using ServiceFactory = std::function<std::unique_ptr<Service>(NodeId replica)>;
// Builds the runtime endpoint for node `id` (a replica or a client).
using EndpointFactory = std::function<std::unique_ptr<Endpoint>(NodeId id)>;

class ReplicaGroup {
 public:
  // Builds every replica, none started. `model`, `metrics` and `tracer` must outlive the group.
  ReplicaGroup(const ReplicaConfig& config, const PerfModel* model, uint64_t seed,
               ServiceFactory services, EndpointFactory endpoints, MetricsRegistry* metrics,
               RequestTracer* tracer);

  // Replicas point at config_ and directory_, so the group never moves.
  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  const ReplicaConfig& config() const { return config_; }
  // Null while replica `i` is destroyed (a real-clock crash).
  Replica* replica(int i) const { return replicas_[static_cast<size_t>(i)].get(); }

  // Arms every replica's timers.
  void Start();
  // Builds replica `i` afresh, not started: empty state, but the same id and seed, so its
  // keys re-derive identically and MAC-mode peers accept it without re-keying.
  Replica* Build(int i);
  // Destroys replica `i` and all its volatile state.
  void Destroy(int i) { replicas_[static_cast<size_t>(i)].reset(); }

  // A client of this group on node `id` (outside the group's replica ids).
  std::unique_ptr<Client> MakeClient(NodeId id);

  // The first replica that is neither destroyed nor crashed; replica 0 when none is. Read a
  // group's progress here: a crashed replica's view and counters froze when it crashed.
  const Replica* FirstLive() const;
  NodeId CurrentPrimary() const;
  // Whether every live replica has executed up to `seq`.
  bool ExecutedThrough(SeqNo seq) const;

  // Replica `i`'s /healthz row; a destroyed or crashed replica reports running=false.
  ReplicaHealth HealthOf(int i) const;
  void AppendHealth(HealthSnapshot* snapshot) const;

 private:
  ReplicaConfig config_;
  const PerfModel* model_;
  uint64_t seed_;
  ServiceFactory services_;
  EndpointFactory endpoints_;
  MetricsRegistry* metrics_;
  RequestTracer* tracer_;
  PublicKeyDirectory directory_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace bft

#endif  // SRC_WORKLOAD_REPLICA_GROUP_H_
