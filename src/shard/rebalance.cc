#include "src/shard/rebalance.h"

#include <algorithm>

namespace bft {

RebalancePlan RebalancePlanner::Plan(const BucketStatsRegistry::Snapshot& stats,
                                     const ShardMap& map) const {
  RebalancePlan plan;
  size_t shards = map.num_shards();
  if (shards < 2 || stats.total_load <= 0) {
    return plan;
  }

  std::vector<double> shard_load = stats.LoadPerShard(map);
  size_t hottest = 0;
  size_t coolest = 0;
  for (size_t s = 1; s < shards; ++s) {
    if (shard_load[s] > shard_load[hottest]) {
      hottest = s;  // strict >: ties break toward the lower index
    }
    if (shard_load[s] < shard_load[coolest]) {
      coolest = s;
    }
  }
  double mean = stats.total_load / static_cast<double>(shards);
  if (hottest == coolest || shard_load[hottest] <= policy_.imbalance_threshold * mean) {
    return plan;
  }

  plan.source = hottest;
  plan.dest = coolest;
  plan.source_load = shard_load[hottest];
  plan.dest_load = shard_load[coolest];

  // Candidate buckets of the hottest shard, hottest first (bucket index breaks ties).
  struct Candidate {
    double load;
    uint32_t bucket;
  };
  std::vector<Candidate> candidates;
  for (uint32_t b = 0; b < ShardMap::kNumBuckets; ++b) {
    if (map.ShardForBucket(b) == hottest && stats.load[b] >= policy_.min_bucket_load) {
      candidates.push_back({stats.load[b], b});
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return a.load != b.load ? a.load > b.load : a.bucket < b.bucket;
  });

  double src = plan.source_load;
  double dst = plan.dest_load;
  for (const Candidate& c : candidates) {
    if (plan.buckets.size() >= policy_.max_moves_per_round) {
      break;
    }
    // Overshoot guard: a move must leave the source at or above the destination, otherwise
    // the next round would just plan the reverse move and the pair would oscillate.
    if (src - c.load < dst + c.load) {
      continue;  // this bucket is too hot to move; a colder one may still fit
    }
    plan.buckets.push_back(c.bucket);
    src -= c.load;
    dst += c.load;
  }
  return plan;
}

RebalanceController::RebalanceController(ShardedCluster* cluster,
                                         RebalanceControllerOptions options)
    : cluster_(cluster),
      options_(options),
      planner_(options.policy),
      coordinator_(cluster),
      endpoint_(cluster->MakeControlEndpoint()) {
  MetricsRegistry& registry = cluster_->metrics();
  rounds_metric_ = registry.GetCounter("bft_rebalance_rounds_total");
  rounds_skipped_metric_ = registry.GetCounter("bft_rebalance_rounds_skipped_total");
  plans_metric_ = registry.GetCounter("bft_rebalance_plans_executed_total");
}

RebalanceController::~RebalanceController() { endpoint_->Close(); }

void RebalanceController::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = endpoint_->SetTimer(options_.interval, [this]() { Tick(); });
}

void RebalanceController::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  endpoint_->CancelTimer(timer_);
}

void RebalanceController::Tick() {
  // Re-arm first: the next round is scheduled ahead of every event this round schedules, so
  // rounds stay one interval apart whatever this one does.
  timer_ = endpoint_->SetTimer(options_.interval, [this]() { Tick(); });
  ++stats_.rounds;
  rounds_metric_->Inc();
  if (coordinator_.active()) {
    // The previous batch is still migrating; planning against a map mid-cut-over would
    // race the publish. Skip — next round re-measures.
    ++stats_.rounds_skipped;
    rounds_skipped_metric_->Inc();
    return;
  }
  SimTime snapshot_at = endpoint_->Now();
  BucketStatsRegistry::Snapshot snapshot = cluster_->bucket_stats().SnapshotEpoch();
  RebalancePlan plan = planner_.Plan(snapshot, cluster_->registry().current());
  SimTime planned_at = endpoint_->Now();
  if (plan.empty()) {
    return;
  }
  last_plan_ = plan;
  ++stats_.plans_executed;
  plans_metric_->Inc();
  // Admin-op timeline (kind=kRebalance) for rounds that act: snapshot and plan are stamped
  // retroactively from the times captured above, so balanced rounds never open a timeline.
  // The Now() reads are pure clock loads — no events, no RNG — so deterministic runs with
  // tracing off stay byte-identical.
  RequestTracer& tracer = cluster_->tracer();
  uint64_t trace_id = tracer.enabled() ? tracer.NextAdminOpId() : 0;
  if (trace_id != 0) {
    tracer.StampAdmin(TraceKind::kRebalance, trace_id, 0, snapshot_at);
    tracer.StampAdmin(TraceKind::kRebalance, trace_id, 1, planned_at);
    tracer.StampAdmin(TraceKind::kRebalance, trace_id, 2, endpoint_->Now());
  }
  coordinator_.StartMoveBuckets(
      plan.buckets, plan.dest,
      [this, trace_id](const BatchMoveReport& report) {
        stats_.buckets_moved += report.moved.size();
        stats_.buckets_rolled_back += report.rolled_back.size();
        stats_.publishes += report.publishes;
        stats_.total_freeze_time += report.freeze_window();
        if (!report.ok) {
          ++stats_.batches_failed;
        }
        if (trace_id != 0) {
          cluster_->tracer().StampAdmin(TraceKind::kRebalance, trace_id, 3,
                                        endpoint_->Now());
        }
      },
      options_.batch_deadline);
}

}  // namespace bft
