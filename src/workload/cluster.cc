#include "src/workload/cluster.h"

#include "src/sim/node.h"

namespace bft {

Cluster::Cluster(ClusterOptions options, ServiceFactory factory)
    : options_(options),
      sim_(options.seed),
      net_(&sim_, options.model.net),
      group_(options.config, &options_.model, options.seed, std::move(factory),
             [this](NodeId id) { return std::make_unique<Node>(&sim_, &net_, id); }, &metrics_,
             &tracer_) {
  tracer_.InstallMetrics(&metrics_);
  group_.Start();
}

Client* Cluster::AddClient() {
  clients_.push_back(group_.MakeClient(next_client_id_++));
  return clients_.back().get();
}

}  // namespace bft
