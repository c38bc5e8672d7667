#include "src/workload/replica_group.h"

namespace bft {

ReplicaGroup::ReplicaGroup(const ReplicaConfig& config, const PerfModel* model, uint64_t seed,
                           ServiceFactory services, EndpointFactory endpoints,
                           MetricsRegistry* metrics, RequestTracer* tracer)
    : config_(config),
      model_(model),
      seed_(seed),
      services_(std::move(services)),
      endpoints_(std::move(endpoints)),
      metrics_(metrics),
      tracer_(tracer),
      replicas_(static_cast<size_t>(config.n)) {
  for (int i = 0; i < config_.n; ++i) {
    Build(i);
  }
}

void ReplicaGroup::Start() {
  for (auto& replica : replicas_) {
    replica->Start();
  }
}

Replica* ReplicaGroup::Build(int i) {
  NodeId id = config_.ReplicaId(i);
  auto& slot = replicas_[static_cast<size_t>(i)];
  slot = std::make_unique<Replica>(endpoints_(id), &config_, model_, &directory_, services_(id),
                                   seed_ + static_cast<uint64_t>(id));
  slot->InstallObservability(metrics_, tracer_);
  return slot.get();
}

std::unique_ptr<Client> ReplicaGroup::MakeClient(NodeId id) {
  auto client = std::make_unique<Client>(endpoints_(id), &config_, model_, &directory_,
                                         seed_ ^ (id * 0x2545f4914f6cdd1dULL));
  client->InstallObservability(metrics_, tracer_);
  return client;
}

const Replica* ReplicaGroup::FirstLive() const {
  for (const auto& replica : replicas_) {
    if (replica != nullptr && !replica->crashed()) {
      return replica.get();
    }
  }
  return replicas_[0].get();
}

NodeId ReplicaGroup::CurrentPrimary() const {
  const Replica* live = FirstLive();
  return config_.PrimaryOf(live != nullptr ? live->view() : 0);
}

bool ReplicaGroup::ExecutedThrough(SeqNo seq) const {
  for (const auto& replica : replicas_) {
    if (replica != nullptr && !replica->crashed() && replica->last_executed() < seq) {
      return false;
    }
  }
  return true;
}

ReplicaHealth ReplicaGroup::HealthOf(int i) const {
  const Replica* r = replica(i);
  if (r == nullptr) {
    return ReplicaHealth{.id = config_.ReplicaId(i)};
  }
  ReplicaHealth h = r->Health();
  h.running = !r->crashed();
  return h;
}

void ReplicaGroup::AppendHealth(HealthSnapshot* snapshot) const {
  for (int i = 0; i < config_.n; ++i) {
    snapshot->replicas.push_back(HealthOf(i));
  }
}

}  // namespace bft
