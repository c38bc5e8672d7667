#include "src/shard/sharded_cluster.h"

#include <cstdio>
#include <cstdlib>

#include "src/sim/node.h"
#include "src/sim/sim_harness.h"

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

  configs_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    ReplicaConfig config = options_.config;
    config.base_id = static_cast<NodeId>(s * static_cast<size_t>(n));
    configs_.push_back(config);
  }
  for (size_t s = 0; s < shards; ++s) {
    directories_.push_back(std::make_unique<PublicKeyDirectory>());
    replicas_.emplace_back();
    for (int i = 0; i < n; ++i) {
      NodeId id = configs_[s].ReplicaId(i);
      // Seed layout matches Cluster (seed + id): bit-for-bit identical for num_shards = 1.
      replicas_[s].push_back(std::make_unique<Replica>(
          std::make_unique<Node>(&sim_, &net_, id), &configs_[s], &options_.model,
          directories_[s].get(), factory(s, id), options_.seed + static_cast<uint64_t>(id)));
    }
  }
  for (auto& group : replicas_) {
    for (auto& replica : group) {
      replica->InstallObservability(&metrics_, &tracer_);
      replica->Start();
    }
  }
  router_service_ = factory(0, configs_[0].ReplicaId(0));

  // Load observation for the rebalancer: replica 0 of each group executes every op the group
  // orders, so pointing exactly one service per group at the shared registry counts each
  // client op once. A pure observer — identical event streams with or without consumers.
  for (auto& group : replicas_) {
    group[0]->service()->set_stats_sink(&bucket_stats_);
  }
}

ShardedCluster::~ShardedCluster() = default;

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
  for (size_t s = 0; s < options_.num_shards; ++s) {
    NodeId id = (*next_id)++;
    endpoints.push_back(std::make_unique<Client>(
        std::make_unique<Node>(&sim_, &net_, id), &configs_[s], &options_.model,
        directories_[s].get(), options_.seed ^ (id * 0x2545f4914f6cdd1dULL)));
  }
  clients_.push_back(std::make_unique<ShardedClient>(
      &registry_, [this](ByteView op) { return router_service_->KeyOf(op); },
      std::move(endpoints)));
  ShardedClient* added = clients_.back().get();
  for (size_t s = 0; s < added->num_shards(); ++s) {
    added->endpoint(s)->InstallObservability(&metrics_, &tracer_);
  }
  return added;
}

std::unique_ptr<Endpoint> ShardedCluster::MakeControlEndpoint() {
  return std::make_unique<Node>(&sim_, &net_, next_admin_id_++);
}

std::optional<Bytes> ShardedCluster::Execute(ShardedClient* client, Bytes op, bool read_only,
                                             SimTime timeout) {
  return sim_harness::Execute(sim_, client, std::move(op), read_only, timeout);
}

bool ShardedCluster::WaitForExecution(size_t shard, SeqNo seq, SimTime timeout) {
  return sim_harness::WaitForExecution(sim_, replicas_[shard], seq, timeout);
}

NodeId ShardedCluster::CurrentPrimary(size_t shard) {
  return sim_harness::CurrentPrimary(configs_[shard], replicas_[shard]);
}

void ShardedCluster::CrashShard(size_t shard) {
  for (auto& replica : replicas_[shard]) {
    replica->Crash();
  }
}

uint64_t ShardedCluster::TotalRequestsExecuted() {
  uint64_t total = 0;
  for (auto& group : replicas_) {
    // First live replica, falling back to replica 0 when the whole group is down — the same
    // convention as CurrentPrimary. Counting only replica 0 undercounts after it crashes:
    // its stats freeze while the surviving group keeps executing.
    Replica* counted = group[0].get();
    for (auto& replica : group) {
      if (!replica->crashed()) {
        counted = replica.get();
        break;
      }
    }
    total += counted->stats().requests_executed;
  }
  return total;
}

}  // namespace bft
