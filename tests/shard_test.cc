// Tests for the sharding subsystem: ShardMap partitioning, sharded routing correctness,
// per-shard view changes, shard-isolated fault injection, and determinism.
#include <gtest/gtest.h>

#include <string>

#include "src/service/kv_service.h"
#include "src/shard/sharded_cluster.h"
#include "src/workload/closed_loop.h"

namespace bft {
namespace {

ShardedClusterOptions Options(size_t shards, uint64_t seed) {
  ShardedClusterOptions options;
  options.num_shards = shards;
  options.seed = seed;
  options.config.checkpoint_period = 32;
  options.config.state_pages = 64;
  return options;
}

ShardServiceFactory KvFactory() {
  return [](size_t, NodeId) { return std::make_unique<KvService>(); };
}

// A key string routed to `shard` under `map`.
Bytes KeyOwnedBy(const ShardMap& map, size_t shard) {
  for (int i = 0; i < 100000; ++i) {
    Bytes key = ToBytes("key-" + std::to_string(i));
    if (map.ShardForKey(key) == shard) {
      return key;
    }
  }
  ADD_FAILURE() << "no key found for shard " << shard;
  return {};
}

// --- ShardMap ------------------------------------------------------------------------------

TEST(ShardMapTest, SingleShardOwnsEverything) {
  ShardMap map(1);
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(map.version(), 1u);
  EXPECT_EQ(map.ShardForKey(ToBytes("a")), 0u);
  EXPECT_EQ(map.ShardForKey(Bytes{}), 0u);  // empty key
  for (uint32_t b = 0; b < ShardMap::kNumBuckets; ++b) {
    EXPECT_EQ(map.ShardForBucket(b), 0u);
  }
}

TEST(ShardMapTest, RoundRobinDefaultAssignmentIsBalanced) {
  ShardMap map(4);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.BucketsOf(s).size(), ShardMap::kNumBuckets / 4);
  }
  // Boundary buckets.
  EXPECT_EQ(map.ShardForBucket(0), 0u);
  EXPECT_EQ(map.ShardForBucket(ShardMap::kNumBuckets - 1), 3u);
}

TEST(ShardMapTest, HashIsStableAndKeysSpreadAcrossShards) {
  // The hash is a pure function of the bytes: same value across map instances.
  ShardMap a(8);
  ShardMap b(8);
  std::vector<size_t> hits(8, 0);
  for (int i = 0; i < 512; ++i) {
    Bytes key = ToBytes("user-" + std::to_string(i));
    EXPECT_EQ(a.ShardForKey(key), b.ShardForKey(key));
    ++hits[a.ShardForKey(key)];
  }
  for (size_t s = 0; s < 8; ++s) {
    EXPECT_GT(hits[s], 0u) << "no keys landed on shard " << s;
  }
}

TEST(ShardMapTest, EmptyKeyRoutesConsistently) {
  ShardMap map(4);
  size_t shard = map.ShardForKey(Bytes{});
  EXPECT_LT(shard, 4u);
  EXPECT_EQ(map.ShardForKey(Bytes{}), shard);
  EXPECT_EQ(map.ShardForKey(ByteView{}), shard);
}

TEST(ShardMapTest, MovingABucketBumpsTheVersion) {
  ShardMap map(2);
  uint32_t bucket = 0;  // owned by shard 0 under round-robin
  ASSERT_EQ(map.ShardForBucket(bucket), 0u);
  ShardMap next = map.WithBucketsMoved({bucket}, 1);
  EXPECT_EQ(next.version(), map.version() + 1);
  EXPECT_EQ(next.ShardForBucket(bucket), 1u);
  // Only that bucket moved.
  for (uint32_t b = 1; b < ShardMap::kNumBuckets; ++b) {
    EXPECT_EQ(next.ShardForBucket(b), map.ShardForBucket(b));
  }
  // The original map is unchanged (versions are immutable artifacts).
  EXPECT_EQ(map.ShardForBucket(bucket), 0u);
}

// --- Routing correctness -------------------------------------------------------------------

TEST(ShardedClusterTest, RoutesEachKeyToItsOwningGroupAndReadsBack) {
  ShardedCluster cluster(Options(4, 21), KvFactory());
  ShardedClient* client = cluster.AddClient();

  // Writes spread over all four groups.
  for (int i = 0; i < 32; ++i) {
    Bytes key = ToBytes("key-" + std::to_string(i));
    Bytes value = ToBytes("value-" + std::to_string(i));
    auto result = cluster.Execute(client, KvService::PutOp(key, value));
    ASSERT_TRUE(result.has_value()) << "PUT " << i << " timed out";
    EXPECT_EQ(ToString(*result), "ok");
  }
  // Every group ordered at least one request, and only requests for its own keys.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(cluster.replica(s, 0)->stats().requests_executed, 0u)
        << "shard " << s << " ordered nothing";
  }
  // Reads come back with the written values (from the owning group's reply certificate).
  for (int i = 0; i < 32; ++i) {
    Bytes key = ToBytes("key-" + std::to_string(i));
    auto result = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
    ASSERT_TRUE(result.has_value()) << "GET " << i << " timed out";
    EXPECT_EQ(ToString(*result), "value-" + std::to_string(i));
  }
}

TEST(ShardedClusterTest, GroupStateIsDisjoint) {
  ShardedCluster cluster(Options(2, 33), KvFactory());
  ShardedClient* client = cluster.AddClient();
  Bytes key0 = KeyOwnedBy(cluster.shard_map(), 0);
  Bytes key1 = KeyOwnedBy(cluster.shard_map(), 1);
  ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key0, ToBytes("zero"))).has_value());
  ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key1, ToBytes("one"))).has_value());

  // Each key lives only in its owning group's service state.
  auto* kv0 = static_cast<KvService*>(cluster.replica(0, 0)->service());
  auto* kv1 = static_cast<KvService*>(cluster.replica(1, 0)->service());
  EXPECT_EQ(kv0->live_entries(), 1u);
  EXPECT_EQ(kv1->live_entries(), 1u);
}

TEST(ShardedClusterTest, KeylessOpsPinToShardZeroAndAreCounted) {
  ShardedCluster cluster(Options(4, 39), KvFactory());
  ShardedClient* client = cluster.AddClient();

  // An op KvService::KeyOf cannot key (unknown verb): the documented policy routes it to
  // shard 0 and counts it, so a workload meant to be fully keyed can assert the counter.
  Writer w;
  w.Str("NOOP");
  Bytes keyless = w.Take();
  EXPECT_EQ(client->ShardOf(keyless), 0u);

  auto r = cluster.Execute(client, keyless);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(ToString(*r), "invalid");  // shard 0's group executed (and rejected) it
  EXPECT_EQ(client->router_stats().keyless_ops, 1u);
  EXPECT_EQ(client->AggregateStats().keyless_ops, 1u);

  // Keyed ops leave the counter alone.
  ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(ToBytes("k"), ToBytes("v"))).has_value());
  EXPECT_EQ(client->AggregateStats().keyless_ops, 1u);
}

TEST(ShardedClusterTest, TotalRequestsExecutedCountsFirstLiveReplica) {
  ShardedCluster cluster(Options(2, 43), KvFactory());
  ShardedClient* client = cluster.AddClient();
  Bytes key0 = KeyOwnedBy(cluster.shard_map(), 0);

  ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key0, ToBytes("a"))).has_value());
  uint64_t before_crash = cluster.TotalRequestsExecuted();
  ASSERT_GT(before_crash, 0u);

  // Crash shard 0's replica 0 (its view-0 primary). Its stats freeze; the group re-elects
  // and keeps executing — the total must keep counting from a live replica, not the corpse.
  cluster.replica(0, 0)->Crash();
  constexpr uint64_t kMoreOps = 5;
  for (uint64_t i = 0; i < kMoreOps; ++i) {
    auto r = cluster.Execute(client, KvService::PutOp(key0, ToBytes("b" + std::to_string(i))),
                             /*read_only=*/false, 60 * kSecond);
    ASSERT_TRUE(r.has_value()) << "op " << i << " after shard-0 primary crash";
  }
  EXPECT_GE(cluster.TotalRequestsExecuted(), before_crash + kMoreOps);
}

// --- S = 1 degenerates to the single-group system ------------------------------------------

TEST(ShardedClusterTest, SingleShardMatchesClusterBitForBit) {
  constexpr uint64_t kSeed = 91;
  std::vector<Bytes> single_results;
  std::vector<Bytes> sharded_results;

  ClusterOptions cluster_options;
  cluster_options.seed = kSeed;
  cluster_options.config.checkpoint_period = 32;
  cluster_options.config.state_pages = 64;
  Cluster single(cluster_options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* single_client = single.AddClient();

  ShardedCluster sharded(Options(1, kSeed), KvFactory());
  ShardedClient* sharded_client = sharded.AddClient();

  for (int i = 0; i < 20; ++i) {
    Bytes op = (i % 3 == 2) ? KvService::GetOp(ToBytes("k" + std::to_string(i / 3)))
                            : KvService::PutOp(ToBytes("k" + std::to_string(i / 3)),
                                               ToBytes("v" + std::to_string(i)));
    bool read_only = (i % 3 == 2);
    auto a = single.Execute(single_client, op, read_only);
    auto b = sharded.Execute(sharded_client, op, read_only);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    single_results.push_back(*a);
    sharded_results.push_back(*b);
  }
  EXPECT_EQ(single_results, sharded_results);

  // Identical event-by-event execution: same simulated clock, same event count, same protocol
  // positions, same service state digest on every replica.
  EXPECT_EQ(single.sim().Now(), sharded.sim().Now());
  EXPECT_EQ(single.sim().executed_events(), sharded.sim().executed_events());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(single.replica(i)->last_executed(), sharded.replica(0, i)->last_executed());
    EXPECT_EQ(single.replica(i)->state().CurrentRootDigest(),
              sharded.replica(0, i)->state().CurrentRootDigest());
  }
}

// --- Per-shard view changes under load -----------------------------------------------------

TEST(ShardedClusterTest, PrimaryCrashTriggersViewChangeOnlyInThatShard) {
  ShardedCluster cluster(Options(2, 47), KvFactory());
  ShardedClient* client = cluster.AddClient();
  Bytes key0 = KeyOwnedBy(cluster.shard_map(), 0);
  Bytes key1 = KeyOwnedBy(cluster.shard_map(), 1);

  // Warm both groups.
  ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key0, ToBytes("a"))).has_value());
  ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key1, ToBytes("b"))).has_value());

  // Crash shard 0's primary. Its group must view-change; shard 1 must not.
  NodeId primary0 = cluster.CurrentPrimary(0);
  cluster.replica(0, cluster.config(0).ReplicaIndex(primary0))->Crash();

  auto result = cluster.Execute(client, KvService::PutOp(key0, ToBytes("after-crash")),
                                /*read_only=*/false, 60 * kSecond);
  ASSERT_TRUE(result.has_value()) << "shard 0 did not recover via view change";
  EXPECT_EQ(ToString(*result), "ok");

  // Shard 0 moved to a new view with a new primary; shard 1 is still in view 0.
  EXPECT_NE(cluster.CurrentPrimary(0), primary0);
  bool shard0_view_changed = false;
  for (int i = 0; i < 4; ++i) {
    if (cluster.replica(0, i)->stats().new_views_entered > 0) {
      shard0_view_changed = true;
    }
    EXPECT_EQ(cluster.replica(1, i)->stats().view_changes_started, 0u)
        << "shard 1 replica " << i << " started a view change";
    EXPECT_EQ(cluster.replica(1, i)->view(), 0u);
  }
  EXPECT_TRUE(shard0_view_changed);

  // Shard 1 still serves its keys normally.
  auto other = cluster.Execute(client, KvService::GetOp(key1), /*read_only=*/true);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(ToString(*other), "b");
}

TEST(ShardedClusterTest, ViewChangeUnderConcurrentLoadOnOtherShards) {
  ShardedCluster cluster(Options(4, 53), KvFactory());
  // Closed-loop load spanning all shards.
  ShardedClosedLoopLoad load(
      &cluster, 8,
      [](size_t c, uint64_t i) {
        return KvService::PutOp(ToBytes("c" + std::to_string(c) + "-" + std::to_string(i % 16)),
                                ToBytes("v"));
      },
      /*read_only=*/false);

  // Let the load ramp up, then crash shard 2's primary mid-flight.
  cluster.sim().Schedule(500 * kMillisecond, [&cluster]() {
    NodeId primary = cluster.CurrentPrimary(2);
    cluster.replica(2, cluster.config(2).ReplicaIndex(primary))->Crash();
  });
  ClosedLoopLoad::Result r = load.Run(/*warmup=*/750 * kMillisecond, /*duration=*/2 * kSecond);

  // The system keeps committing across the crash, and shard 2 re-elects.
  EXPECT_GT(r.ops_completed, 100u);
  bool shard2_recovered = false;
  for (int i = 0; i < 4; ++i) {
    if (cluster.replica(2, i)->stats().new_views_entered > 0) {
      shard2_recovered = true;
    }
  }
  EXPECT_TRUE(shard2_recovered);
}

// --- Shard-isolated faults -----------------------------------------------------------------

TEST(ShardedClusterTest, CrashedGroupDoesNotStallOthers) {
  ShardedCluster cluster(Options(4, 61), KvFactory());
  ShardedClient* client = cluster.AddClient();
  Bytes dead_key = KeyOwnedBy(cluster.shard_map(), 1);

  cluster.CrashShard(1);

  // Every other shard commits normally with small timeouts.
  for (size_t s : {0u, 2u, 3u}) {
    Bytes key = KeyOwnedBy(cluster.shard_map(), s);
    auto result = cluster.Execute(client, KvService::PutOp(key, ToBytes("live")),
                                  /*read_only=*/false, 10 * kSecond);
    ASSERT_TRUE(result.has_value()) << "shard " << s << " stalled by shard 1's crash";
    EXPECT_EQ(ToString(*result), "ok");
  }

  // An op for the dead group times out (on a *fresh* client so no endpoint stays busy).
  ShardedClient* doomed = cluster.AddClient();
  auto dead = cluster.Execute(doomed, KvService::PutOp(dead_key, ToBytes("x")),
                              /*read_only=*/false, 5 * kSecond);
  EXPECT_FALSE(dead.has_value());

  // And the live shards are still fine afterwards.
  Bytes key0 = KeyOwnedBy(cluster.shard_map(), 0);
  auto after = cluster.Execute(client, KvService::GetOp(key0), /*read_only=*/true);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(ToString(*after), "live");
}

// --- Determinism ---------------------------------------------------------------------------

TEST(ShardedClusterTest, FixedSeedGivesIdenticalRuns) {
  auto run = [](uint64_t seed) {
    ShardedCluster cluster(Options(4, seed), KvFactory());
    ShardedClosedLoopLoad load(
        &cluster, 8,
        [](size_t c, uint64_t i) {
          return KvService::PutOp(ToBytes("k" + std::to_string(c) + "-" + std::to_string(i)),
                                  ToBytes("v"));
        },
        false);
    ClosedLoopLoad::Result r = load.Run(250 * kMillisecond, 500 * kMillisecond);
    struct Outcome {
      uint64_t ops;
      uint64_t events;
      SimTime mean_latency;
      uint64_t total_requests;
    };
    return Outcome{r.ops_completed, cluster.sim().executed_events(), r.mean_latency,
                   cluster.TotalRequestsExecuted()};
  };

  auto a = run(77);
  auto b = run(77);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_GT(a.ops, 100u);
}

}  // namespace
}  // namespace bft
