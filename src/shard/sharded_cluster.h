// Harness for S independent PBFT replica groups on one simulated network.
//
// Generalizes workload/Cluster: each shard is a ReplicaGroup (src/workload/replica_group.h)
// with its own ReplicaConfig (disjoint node-id range via ReplicaConfig::base_id), its own key
// directory and its own replica set; all groups share one Simulator and one Network, so
// cross-shard timing, faults, and partitions compose naturally. Clients are ShardedClients
// that route each keyed operation to its owning group.
//
// Every group is wired by the same ReplicaGroup code as Cluster's, so with num_shards = 1 the
// construction is bit-for-bit identical to workload/Cluster for the same seed: same node ids,
// same per-node seeds, same event order (tests/shard_test.cc pins this down).
#ifndef SRC_SHARD_SHARDED_CLUSTER_H_
#define SRC_SHARD_SHARDED_CLUSTER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/shard/bucket_stats.h"
#include "src/shard/shard_map.h"
#include "src/shard/sharded_client.h"
#include "src/workload/cluster.h"

namespace bft {

// Builds the replicated service for one replica of one shard. `replica` is the global node id.
using ShardServiceFactory = std::function<std::unique_ptr<Service>(size_t shard, NodeId replica)>;

struct ShardedClusterOptions {
  size_t num_shards = 1;
  // Per-group template; base_id is overwritten per shard (shard s occupies [s*n, s*n + n)).
  ReplicaConfig config;
  PerfModel model;
  uint64_t seed = 42;
};

class ShardedCluster {
 public:
  ShardedCluster(ShardedClusterOptions options, ShardServiceFactory factory);

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  // The latest published map (old references stay valid across publishes; see registry()).
  const ShardMap& shard_map() const { return registry_.current(); }
  // The deployment's shard-map publication point: the migration coordinator freezes buckets
  // and publishes new versions here; every client of this cluster routes through it.
  ShardMapRegistry& registry() { return registry_; }
  size_t num_shards() const { return options_.num_shards; }
  const PerfModel& model() const { return options_.model; }

  // Builds migration/routing ops without touching any replica's state (the same factory
  // product the clients' key extractor uses; never Initialize()d).
  Service* op_builder() { return router_service_.get(); }

  const ReplicaConfig& config(size_t shard) const { return groups_[shard].config(); }
  Replica* replica(size_t shard, int i) { return groups_[shard].replica(i); }
  int replicas_per_shard() const { return options_.config.n; }

  // A router client with one endpoint in every group. Ops route by Service::KeyOf.
  ShardedClient* AddClient();
  ShardedClient* client(size_t i) { return clients_[i].get(); }
  size_t num_clients() const { return clients_.size(); }

  // A router client whose endpoints carry ids in the reserved admin range
  // (kAdminIdBase): the only identity replicas accept MIG_*/REB_* ops from.
  // The migration coordinator and rebalance controller route through one of these.
  ShardedClient* AddAdminClient();

  // A bare simulator endpoint in the admin id space with no protocol role — timers and a
  // clock for control-plane daemons (the rebalance controller's scheduling seam).
  std::unique_ptr<Endpoint> MakeControlEndpoint();

  // Shared per-bucket load/size statistics. Replica 0 of every group feeds it via the
  // Service keyed-op upcall (installed at construction; pure observer, so runs with and
  // without a consumer are identical).
  BucketStatsRegistry& bucket_stats() { return bucket_stats_; }

  // Synchronously executes one operation through `client` (runs the simulator until the
  // owning group's reply certificate completes or `timeout` of simulated time passes).
  std::optional<Bytes> Execute(ShardedClient* client, Bytes op, bool read_only = false,
                               SimTime timeout = 30 * kSecond) {
    return ExecuteOnSim(sim_, client, std::move(op), read_only, timeout);
  }

  // Runs the simulator until every live replica of `shard` has executed up to `seq`.
  bool WaitForExecution(size_t shard, SeqNo seq, SimTime timeout = 30 * kSecond) {
    return sim_.RunUntilCondition(
        [this, shard, seq]() { return groups_[shard].ExecutedThrough(seq); }, sim_.Now() + timeout);
  }

  // Node id of shard's current primary according to its first live replica.
  NodeId CurrentPrimary(size_t shard) const { return groups_[shard].CurrentPrimary(); }

  // Fail-stop crashes every replica of one group (shard-isolated fault injection).
  void CrashShard(size_t shard);

  // Sum of requests executed across groups, each counted at its first live replica (see
  // ReplicaGroup::FirstLive). A fully crashed group contributes replica 0's frozen count.
  uint64_t TotalRequestsExecuted() const;

  // Harness-owned observability across every group (see workload/Cluster).
  MetricsRegistry& metrics() { return metrics_; }
  RequestTracer& tracer() { return tracer_; }

  // The /healthz document across every group. `active_migrations` comes from the caller:
  // the MigrationCoordinator lives outside the cluster (tests and the rebalance controller
  // each own their own), so the cluster cannot see it.
  HealthSnapshot Health(uint64_t active_migrations = 0) const {
    HealthSnapshot snapshot;
    for (const ReplicaGroup& group : groups_) {
      group.AppendHealth(&snapshot);
    }
    snapshot.active_migrations = active_migrations;
    snapshot.frozen_buckets = registry_.FrozenCount();
    snapshot.shard_map_version = registry_.version();
    return snapshot;
  }

 private:
  ShardedClient* AddRouterClient(NodeId* next_id);

  ShardedClusterOptions options_;
  // Destroyed after the replicas/clients whose instruments point into it.
  MetricsRegistry metrics_;
  RequestTracer tracer_;
  ShardMapRegistry registry_;
  Simulator sim_;
  Network net_;
  std::deque<ReplicaGroup> groups_;  // one per shard; a deque never moves its elements
  std::vector<std::unique_ptr<ShardedClient>> clients_;
  std::unique_ptr<Service> router_service_;  // key extraction only, never Initialized
  BucketStatsRegistry bucket_stats_;
  NodeId next_client_id_ = kClientIdBase;
  NodeId next_admin_id_ = kAdminIdBase;
};

}  // namespace bft

#endif  // SRC_SHARD_SHARDED_CLUSTER_H_
