// S1 — Aggregate throughput vs shard count: S independent PBFT groups side by side on one
// simulated network, each ordering only the keys it owns. A single group's throughput is
// capped by its primary's CPU (Section 8.3.2); sharding multiplies the number of primaries,
// so aggregate committed throughput should scale near-linearly until the key distribution or
// client count becomes the bottleneck.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/service/kv_service.h"
#include "src/shard/sharded_cluster.h"

using namespace bft;

namespace {

// Enough closed-loop clients to saturate a single group's primary: scaling is then limited
// by ordering capacity (the quantity sharding multiplies), not by the client population.
constexpr size_t kClients = 64;
constexpr uint64_t kKeysPerClient = 64;

ShardedClusterOptions ShardOptions(size_t shards, uint64_t seed) {
  ShardedClusterOptions options;
  options.num_shards = shards;
  options.seed = seed;
  options.config.checkpoint_period = 128;
  options.config.log_size = 256;
  options.config.state_pages = 64;
  return options;
}

Bytes MakeKvOp(size_t client, uint64_t op) {
  Bytes key = ToBytes("c" + std::to_string(client) + "-" +
                      std::to_string(op % kKeysPerClient));
  return KvService::PutOp(key, ToBytes("value"));
}

ClosedLoopLoad::Result RunOne(size_t shards, uint64_t seed) {
  ShardedCluster cluster(ShardOptions(shards, seed),
                         [](size_t, NodeId) { return std::make_unique<KvService>(); });
  ShardedClosedLoopLoad load(&cluster, kClients, MakeKvOp, /*read_only=*/false);
  return load.Run(/*warmup=*/500 * kMillisecond, /*duration=*/1500 * kMillisecond);
}

}  // namespace

int main() {
  PrintHeader("S1", "aggregate committed throughput vs shard count (closed-loop KV PUTs)");
  std::printf("%-8s %-10s %18s %16s %12s\n", "shards", "replicas", "aggregate (op/s)",
              "mean lat (us)", "speedup");

  double base = 0;
  double at_s4 = 0;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ClosedLoopLoad::Result r = RunOne(shards, /*seed=*/4242);
    if (shards == 1) {
      base = r.ops_per_second;
    }
    if (shards == 4) {
      at_s4 = r.ops_per_second;
    }
    std::printf("%-8zu %-10zu %18.0f %16.1f %11.2fx\n", shards, shards * 4, r.ops_per_second,
                ToUs(r.mean_latency), base > 0 ? r.ops_per_second / base : 0.0);
  }

  std::printf("\ndeterminism check (S=4, same seed twice): ");
  ClosedLoopLoad::Result a = RunOne(4, 7);
  ClosedLoopLoad::Result b = RunOne(4, 7);
  bool deterministic = a.ops_completed == b.ops_completed && a.mean_latency == b.mean_latency;
  std::printf("%s (%lu ops, mean %.1f us)\n", deterministic ? "IDENTICAL" : "MISMATCH",
              static_cast<unsigned long>(a.ops_completed), ToUs(a.mean_latency));

  std::printf("\nshape checks:\n");
  std::printf("  - throughput scales with shard count while clients keep every primary busy\n");
  std::printf("  - S=1 -> S=4 speedup target: >= 2x (acceptance gate): %s (%.2fx)\n",
              at_s4 >= 2 * base ? "PASS" : "FAIL", base > 0 ? at_s4 / base : 0.0);
  std::printf("  - mean latency falls as per-group queueing shrinks\n");
  return deterministic && at_s4 >= 2 * base ? 0 : 1;
}
