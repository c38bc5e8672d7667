#include "src/shard/sharded_cluster.h"

#include <cstdio>
#include <cstdlib>

#include "src/sim/node.h"

namespace bft {

ShardedCluster::ShardedCluster(ShardedClusterOptions options, ShardServiceFactory factory)
    : options_(options),
      registry_(ShardMap(options.num_shards)),
      sim_(options.seed),
      net_(&sim_, options.model.net) {
  tracer_.InstallMetrics(&metrics_);
  size_t shards = options_.num_shards;
  int n = options_.config.n;
  // Replica id ranges must stay clear of the client id space. Checked in every build mode:
  // a violation makes IsClientId() misclassify replicas and silently corrupts routing.
  if (shards == 0 || shards * static_cast<size_t>(n) >= kClientIdBase) {
    std::fprintf(stderr, "ShardedCluster: %zu shards x %d replicas exceeds the replica id space\n",
                 shards, n);
    std::abort();
  }

  for (size_t s = 0; s < shards; ++s) {
    ReplicaConfig config = options_.config;
    config.base_id = static_cast<NodeId>(s * static_cast<size_t>(n));
    groups_.emplace_back(
        config, &options_.model, options_.seed,
        [factory, s](NodeId id) { return factory(s, id); },
        [this](NodeId id) { return std::make_unique<Node>(&sim_, &net_, id); }, &metrics_,
        &tracer_);
  }
  for (ReplicaGroup& group : groups_) {
    group.Start();
    // Load observation for the rebalancer: replica 0 of each group executes every op the
    // group orders, so pointing exactly one service per group at the shared registry counts
    // each client op once. A pure observer — identical event streams with or without
    // consumers.
    group.replica(0)->service()->set_stats_sink(&bucket_stats_);
  }
  router_service_ = factory(0, groups_[0].config().ReplicaId(0));
}

ShardedClient* ShardedCluster::AddClient() {
  ShardedClient* added = AddRouterClient(&next_client_id_);
  if (next_client_id_ > kAdminIdBase) {
    std::fprintf(stderr, "ShardedCluster: client ids overran the admin id range\n");
    std::abort();
  }
  return added;
}

ShardedClient* ShardedCluster::AddAdminClient() { return AddRouterClient(&next_admin_id_); }

ShardedClient* ShardedCluster::AddRouterClient(NodeId* next_id) {
  std::vector<std::unique_ptr<Client>> endpoints;
  endpoints.reserve(options_.num_shards);
  for (ReplicaGroup& group : groups_) {
    endpoints.push_back(group.MakeClient((*next_id)++));
  }
  clients_.push_back(std::make_unique<ShardedClient>(
      &registry_, [this](ByteView op) { return router_service_->KeyOf(op); },
      std::move(endpoints)));
  return clients_.back().get();
}

std::unique_ptr<Endpoint> ShardedCluster::MakeControlEndpoint() {
  return std::make_unique<Node>(&sim_, &net_, next_admin_id_++);
}

void ShardedCluster::CrashShard(size_t shard) {
  for (int i = 0; i < options_.config.n; ++i) {
    groups_[shard].replica(i)->Crash();
  }
}

uint64_t ShardedCluster::TotalRequestsExecuted() const {
  uint64_t total = 0;
  for (const ReplicaGroup& group : groups_) {
    // Counting only replica 0 would undercount after it crashes: its stats freeze while the
    // surviving group keeps executing.
    total += group.FirstLive()->stats().requests_executed;
  }
  return total;
}

}  // namespace bft
