// Load-aware auto-rebalancing: the policy and the daemon that turn per-bucket heat
// statistics (src/shard/bucket_stats.h) into batched live bucket migrations
// (MigrationCoordinator::MoveBuckets).
//
// The split mirrors a classic control plane:
//
//   RebalancePlanner    — a pure, deterministic function (stats snapshot, current ShardMap,
//                         policy knobs) -> RebalancePlan. No cluster, no clock, no RNG:
//                         the same snapshot and map always produce the same plan, so the
//                         policy is unit-testable in isolation and every planning decision
//                         is replayable from its inputs.
//
//   RebalanceController — the event-driven daemon. A timer on the Endpoint seam, re-armed
//                         every round, snapshots the stats registry (one epoch per
//                         planning round), asks the planner for a plan, and executes it
//                         through the migration coordinator's batch entry point under
//                         the reserved admin identity. At most one batch is in flight;
//                         rounds that would overlap a running batch are skipped, and a
//                         per-batch deadline stops a dead destination group from wedging
//                         the key space behind a permanent freeze.
//
// Policy (greedy, threshold-gated): find the most- and least-loaded groups under the
// current map; if the hottest group's load exceeds `imbalance_threshold` times the mean,
// move its hottest buckets to the coolest group — hottest first, stopping before a move
// would overshoot (source dipping below the destination), and never more than
// `max_moves_per_round` buckets per batch. Repeated rounds converge instead of oscillating
// because every round re-measures and the overshoot guard keeps source above destination.
#ifndef SRC_SHARD_REBALANCE_H_
#define SRC_SHARD_REBALANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/shard/bucket_stats.h"
#include "src/shard/migration.h"

namespace bft {

struct RebalancePolicy {
  // A round plans moves only when max-shard load > imbalance_threshold * mean load.
  double imbalance_threshold = 1.25;
  // Batch size cap: bounds the freeze window a single round may impose.
  size_t max_moves_per_round = 8;
  // Buckets colder than this (decayed ops/epoch) are never worth a migration.
  double min_bucket_load = 1.0;
};

struct RebalancePlan {
  size_t source = 0;
  size_t dest = 0;
  std::vector<uint32_t> buckets;  // hottest-first; empty = balanced, nothing to do
  double source_load = 0;         // loads at planning time (diagnostics)
  double dest_load = 0;

  bool empty() const { return buckets.empty(); }
};

class RebalancePlanner {
 public:
  explicit RebalancePlanner(RebalancePolicy policy) : policy_(policy) {}

  // Pure and deterministic: ties (equal loads, equal heat) break toward the lower shard /
  // bucket index, so identical inputs yield identical plans on every run and replica.
  RebalancePlan Plan(const BucketStatsRegistry::Snapshot& stats, const ShardMap& map) const;

  const RebalancePolicy& policy() const { return policy_; }

 private:
  RebalancePolicy policy_;
};

struct RebalanceControllerOptions {
  // Planning-round period; also the stats epoch length (the controller snapshots once per
  // round, so "load" means decayed ops per interval).
  SimTime interval = 250 * kMillisecond;
  RebalancePolicy policy;
  // Passed to MoveBuckets: a batch not done by then aborts and rolls back (0 disables).
  SimTime batch_deadline = 30 * kSecond;
};

class RebalanceController {
 public:
  // Creates its own migration coordinator (admin identity) and control endpoint on
  // `cluster`; reads the cluster's shared BucketStatsRegistry.
  RebalanceController(ShardedCluster* cluster, RebalanceControllerOptions options);
  ~RebalanceController();

  RebalanceController(const RebalanceController&) = delete;
  RebalanceController& operator=(const RebalanceController&) = delete;

  // Arms / disarms the planning timer, which re-arms itself every round. Start is idempotent.
  void Start();
  void Stop();

  struct Stats {
    uint64_t rounds = 0;           // timer fires
    uint64_t rounds_skipped = 0;   // a batch was still in flight
    uint64_t plans_executed = 0;   // non-empty plans handed to the coordinator
    uint64_t buckets_moved = 0;    // published to their destinations
    uint64_t buckets_rolled_back = 0;
    uint64_t batches_failed = 0;
    uint64_t publishes = 0;        // one per executed batch when all goes well
    SimTime total_freeze_time = 0; // sum of batch freeze windows
  };
  const Stats& stats() const { return stats_; }
  const RebalancePlan& last_plan() const { return last_plan_; }
  bool batch_active() const { return coordinator_.active(); }

 private:
  void Tick();

  ShardedCluster* cluster_;
  RebalanceControllerOptions options_;
  RebalancePlanner planner_;
  MigrationCoordinator coordinator_;
  std::unique_ptr<Endpoint> endpoint_;  // timers only (the scheduling seam)
  Endpoint::TimerId timer_ = 0;
  bool running_ = false;
  Stats stats_;
  RebalancePlan last_plan_;
  // Pre-resolved instruments in the cluster's registry, bumped once per planning round —
  // batch outcomes (moves, rollbacks, freeze windows) are counted by the coordinator.
  Counter* rounds_metric_ = nullptr;
  Counter* rounds_skipped_metric_ = nullptr;
  Counter* plans_metric_ = nullptr;
};

}  // namespace bft

#endif  // SRC_SHARD_REBALANCE_H_
