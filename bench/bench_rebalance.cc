// R1 — Load-aware auto-rebalancing under skew: aggregate throughput and per-group tail
// latency with a Zipfian closed-loop workload, auto-rebalancer off vs on, at S=4.
//
// Under skew, the hottest keys concentrate in a handful of ring buckets; the static
// round-robin bucket assignment then leaves one replica group ordering far more than its
// share while others idle — the aggregate is capped by the hottest group's primary. The
// RebalanceController measures per-bucket heat (BucketStatsRegistry, fed by the KvService
// keyed-op upcall), plans hottest-bucket-to-coolest-group batches (RebalancePlanner), and
// executes them as batched live migrations (one ShardMap publish per batch). With a uniform
// workload the planner should stay idle: the imbalance threshold gates any movement.
//
// All metrics are simulated time — deterministic, so CI diffs the whole stdout against
// bench/expected/bench_rebalance.txt.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/kv_service.h"
#include "src/shard/rebalance.h"
#include "src/shard/sharded_cluster.h"

using namespace bft;

namespace {

constexpr size_t kShards = 4;
constexpr size_t kClients = 96;
constexpr uint64_t kKeySpace = 256;  // distinct keys; mostly one hot key per hot bucket
constexpr double kTheta = 0.99;       // YCSB-default Zipfian skew
// Warmup covers the first planning rounds so the measured window is the rebalanced steady
// state.
constexpr SimTime kWarmup = 1500 * kMillisecond;
constexpr SimTime kDuration = 3 * kSecond;

ShardedClusterOptions ShardOptions(uint64_t seed) {
  ShardedClusterOptions options;
  options.num_shards = kShards;
  options.seed = seed;
  options.config.checkpoint_period = 128;
  options.config.state_pages = 64;
  return options;
}

struct RunResult {
  ClosedLoopLoad::Result load;
  RebalanceController::Stats rebalance;
};

// One measured run. `skewed` selects Zipfian vs uniform key popularity; `rebalance` arms the
// controller for the whole run (it plans from the first interval, so moves land during
// warmup and the measured window sees the rebalanced steady state plus any residual moves).
RunResult RunOne(bool skewed, bool rebalance, uint64_t seed) {
  ShardedCluster cluster(ShardOptions(seed),
                         [](size_t, NodeId) { return std::make_unique<KvService>(); });

  std::unique_ptr<RebalanceController> controller;
  if (rebalance) {
    RebalanceControllerOptions options;
    options.interval = 250 * kMillisecond;
    options.policy.imbalance_threshold = 1.25;
    options.policy.max_moves_per_round = 8;
    options.policy.min_bucket_load = 8.0;
    controller = std::make_unique<RebalanceController>(&cluster, options);
    controller->Start();
  }

  // Per-client deterministic key-rank streams; rank r -> key "z<r>".
  std::vector<ZipfianGenerator> zipf;
  for (size_t c = 0; c < kClients; ++c) {
    zipf.emplace_back(kKeySpace, kTheta, seed * 1000 + c);
  }
  ShardedClosedLoopLoad load(
      &cluster, kClients,
      [&zipf, skewed](size_t c, uint64_t i) {
        uint64_t rank = skewed ? zipf[c].Next() : (c * 7919 + i * 31) % kKeySpace;
        return KvService::PutOp(ToBytes("z" + std::to_string(rank)), ToBytes("value"));
      },
      /*read_only=*/false);

  RunResult out;
  out.load = load.Run(kWarmup, kDuration);
  if (controller != nullptr) {
    out.rebalance = controller->stats();
    controller->Stop();
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader("R1", "auto-rebalancer under Zipfian skew: throughput and tail vs static map");
  std::printf("%-10s %-10s %14s %14s %14s %8s %10s %8s\n", "skew", "rebalance",
              "agg (op/s)", "mean lat(us)", "p99 worst(ms)", "moved", "freeze(ms)", "plans");

  RunResult cells[2][2];  // [skewed][rebalance]
  for (int skewed = 0; skewed <= 1; ++skewed) {
    for (int rebalance = 0; rebalance <= 1; ++rebalance) {
      cells[skewed][rebalance] = RunOne(skewed != 0, rebalance != 0, /*seed=*/4242);
      const RunResult& r = cells[skewed][rebalance];
      std::printf("%-10s %-10s %14.0f %14.1f %14.2f %8lu %10.2f %8lu\n",
                  skewed ? "zipf0.99" : "uniform", rebalance ? "on" : "off",
                  r.load.ops_per_second, ToUs(r.load.mean_latency),
                  ToMs(r.load.max_group_p99()),
                  static_cast<unsigned long>(r.rebalance.buckets_moved),
                  ToMs(r.rebalance.total_freeze_time),
                  static_cast<unsigned long>(r.rebalance.plans_executed));
    }
  }

  // Map publishes and the router's view of the moves: ops queued behind a freeze window and
  // stale-owner replies re-routed after a publish.
  std::printf("\n%-10s %-10s %10s %14s %15s\n", "skew", "rebalance", "publishes",
              "frozen_queued", "stale_reroutes");
  for (int skewed = 0; skewed <= 1; ++skewed) {
    for (int rebalance = 0; rebalance <= 1; ++rebalance) {
      const RunResult& r = cells[skewed][rebalance];
      std::printf("%-10s %-10s %10lu %14lu %15lu\n", skewed ? "zipf0.99" : "uniform",
                  rebalance ? "on" : "off", static_cast<unsigned long>(r.rebalance.publishes),
                  static_cast<unsigned long>(r.load.frozen_queued),
                  static_cast<unsigned long>(r.load.stale_reroutes));
    }
  }

  double skew_off = cells[1][0].load.ops_per_second;
  double skew_on = cells[1][1].load.ops_per_second;
  double uniform_off = cells[0][0].load.ops_per_second;
  double uniform_on = cells[0][1].load.ops_per_second;
  uint64_t uniform_moves = cells[0][1].rebalance.buckets_moved;
  double gain = skew_off > 0 ? skew_on / skew_off : 0.0;

  std::printf("\nshape checks:\n");
  std::printf("  - skewed, rebalance on vs off: %.2fx aggregate (gate: > 1.02x): %s\n", gain,
              gain > 1.02 ? "PASS" : "FAIL");
  std::printf("  - uniform load stays put (threshold gates movement): %lu buckets moved\n",
              static_cast<unsigned long>(uniform_moves));
  std::printf("  - uniform throughput unaffected by an idle rebalancer: %.0f vs %.0f op/s\n",
              uniform_on, uniform_off);
  return gain > 1.02 ? 0 : 1;
}
