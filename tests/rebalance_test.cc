// The load-aware rebalancing subsystem: bucket heat statistics, the pure planner policy,
// batched multi-bucket migrations (single publish, per-bucket rollback), the admin ACL on
// the MIG_*/REB_* control plane, and the end-to-end controller daemon.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/serializer.h"
#include "src/service/kv_service.h"
#include "src/shard/bucket_stats.h"
#include "src/shard/migration.h"
#include "src/shard/rebalance.h"
#include "src/shard/sharded_cluster.h"
#include "src/workload/closed_loop.h"

namespace bft {
namespace {

ShardedClusterOptions Options(size_t shards, uint64_t seed) {
  ShardedClusterOptions options;
  options.num_shards = shards;
  options.seed = seed;
  options.config.checkpoint_period = 32;
  options.config.log_size = 64;
  options.config.state_pages = 64;
  return options;
}

ShardServiceFactory KvFactory() {
  return [](size_t, NodeId) { return std::make_unique<KvService>(); };
}

// `count` distinct keys all hashing into `bucket`.
std::vector<Bytes> KeysInBucket(uint32_t bucket, size_t count, const std::string& prefix) {
  std::vector<Bytes> keys;
  for (int i = 0; keys.size() < count && i < 4'000'000; ++i) {
    Bytes key = ToBytes(prefix + std::to_string(i));
    if (KeyRing::BucketForKey(key) == bucket) {
      keys.push_back(std::move(key));
    }
  }
  EXPECT_EQ(keys.size(), count) << "key search exhausted for bucket " << bucket;
  return keys;
}

// --- BucketStatsRegistry -------------------------------------------------------------------

TEST(BucketStatsTest, CountsOpsAndResidentBytesWithEpochDecay) {
  BucketStatsRegistry stats(/*decay=*/0.5);
  stats.RecordKeyedOp(7, 20, +12);
  stats.RecordKeyedOp(7, 20, +8);
  stats.RecordKeyedOp(9, 20, 0);
  EXPECT_EQ(stats.epoch_ops(7), 2u);
  EXPECT_EQ(stats.resident_bytes(7), 20u);
  EXPECT_EQ(stats.lifetime_ops(), 3u);

  BucketStatsRegistry::Snapshot s1 = stats.SnapshotEpoch();
  EXPECT_DOUBLE_EQ(s1.load[7], 2.0);
  EXPECT_DOUBLE_EQ(s1.load[9], 1.0);
  EXPECT_DOUBLE_EQ(s1.total_load, 3.0);
  EXPECT_EQ(s1.resident_bytes[7], 20u);
  EXPECT_EQ(stats.epoch_ops(7), 0u);  // epoch counters reset by the snapshot

  // Idle epoch: load halves; a delete shrinks resident bytes but never below zero.
  stats.RecordKeyedOp(7, 20, -25);
  BucketStatsRegistry::Snapshot s2 = stats.SnapshotEpoch();
  EXPECT_DOUBLE_EQ(s2.load[7], 2.0 * 0.5 + 1.0);
  EXPECT_DOUBLE_EQ(s2.load[9], 0.5);
  EXPECT_EQ(s2.resident_bytes[7], 0u);
  EXPECT_EQ(s2.epoch, 2u);
}

TEST(BucketStatsTest, LoadPerShardFollowsTheMap) {
  BucketStatsRegistry stats;
  stats.RecordKeyedOp(0, 10, 0);  // shard 0 under round-robin at S=2
  stats.RecordKeyedOp(2, 10, 0);  // shard 0
  stats.RecordKeyedOp(3, 10, 0);  // shard 1
  BucketStatsRegistry::Snapshot snap = stats.SnapshotEpoch();
  ShardMap map(2);
  std::vector<double> per_shard = snap.LoadPerShard(map);
  EXPECT_DOUBLE_EQ(per_shard[0], 2.0);
  EXPECT_DOUBLE_EQ(per_shard[1], 1.0);
  // After moving bucket 2, its load follows the new owner.
  std::vector<double> moved = snap.LoadPerShard(map.WithBucketsMoved({2}, 1));
  EXPECT_DOUBLE_EQ(moved[0], 1.0);
  EXPECT_DOUBLE_EQ(moved[1], 2.0);
}

// The end-to-end feed: executed keyed ops on a sharded cluster land in the shared registry.
TEST(BucketStatsTest, ClusterFeedsRegistryOncePerExecutedOp) {
  ShardedCluster cluster(Options(2, 211), KvFactory());
  ShardedClient* client = cluster.AddClient();
  Bytes key = ToBytes("stat-key");
  uint32_t bucket = KeyRing::BucketForKey(key);
  for (int i = 0; i < 5; ++i) {
    auto r = cluster.Execute(client, KvService::PutOp(key, ToBytes("v")));
    ASSERT_TRUE(r.has_value());
  }
  auto g = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(cluster.bucket_stats().epoch_ops(bucket), 6u);
  // Resident bytes approximate the stored entry: key + value, not re-added on overwrite.
  EXPECT_EQ(cluster.bucket_stats().resident_bytes(bucket), key.size() + 1);
}

// --- RebalancePlanner ----------------------------------------------------------------------

// Builds a snapshot with the given (bucket, load) pairs.
BucketStatsRegistry::Snapshot MakeSnapshot(
    const std::vector<std::pair<uint32_t, double>>& loads) {
  BucketStatsRegistry::Snapshot snap;
  snap.load.assign(KeyRing::kNumBuckets, 0.0);
  snap.resident_bytes.assign(KeyRing::kNumBuckets, 0);
  for (const auto& [bucket, load] : loads) {
    snap.load[bucket] = load;
    snap.total_load += load;
  }
  return snap;
}

TEST(RebalancePlannerTest, BalancedLoadPlansNothing) {
  RebalancePlanner planner(RebalancePolicy{});
  ShardMap map(4);
  // Buckets 0..3 round-robin to shards 0..3: perfectly balanced.
  auto snap = MakeSnapshot({{0, 100}, {1, 100}, {2, 100}, {3, 100}});
  EXPECT_TRUE(planner.Plan(snap, map).empty());
  // No load at all: nothing to plan.
  EXPECT_TRUE(planner.Plan(MakeSnapshot({}), map).empty());
  // Single shard: nowhere to move.
  EXPECT_TRUE(planner.Plan(MakeSnapshot({{0, 100}}), ShardMap(1)).empty());
}

TEST(RebalancePlannerTest, MovesHottestBucketsFromHottestToCoolestShard) {
  RebalancePolicy policy;
  policy.imbalance_threshold = 1.25;
  policy.max_moves_per_round = 8;
  policy.min_bucket_load = 1.0;
  RebalancePlanner planner(policy);
  ShardMap map(4);
  // Shard 0 owns buckets 0,4,8,12 (round-robin): loads 50+40+30+20 = 140.
  // Shards 1..3 own one warm bucket each: 20, 10, 5 -> shard 3 is coolest.
  auto snap = MakeSnapshot(
      {{0, 50}, {4, 40}, {8, 30}, {12, 20}, {1, 20}, {2, 10}, {3, 5}});
  RebalancePlan plan = planner.Plan(snap, map);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.source, 0u);
  EXPECT_EQ(plan.dest, 3u);
  // Hottest-first, stopping before overshoot: moving 50 leaves src 90 >= dst 55; moving 40
  // more leaves src 50 < dst 95, so 40 is skipped; 30 leaves src 60 >= dst 85? No: 90-30=60,
  // 55+30=85 -> overshoot, skipped; 20 -> 70 vs 75 -> overshoot, skipped.
  EXPECT_EQ(plan.buckets, (std::vector<uint32_t>{0}));
}

TEST(RebalancePlannerTest, RespectsMaxMovesAndMinBucketLoad) {
  RebalancePolicy policy;
  policy.imbalance_threshold = 1.0;  // always plan when imbalanced
  policy.max_moves_per_round = 2;
  policy.min_bucket_load = 3.0;
  RebalancePlanner planner(policy);
  ShardMap map(2);
  // Shard 0: five equal warm buckets plus one cold one; shard 1 idle. Three moves would
  // pass the overshoot guard (20>=4, 16>=8, 12>=12) — the round cap stops at two, and the
  // cold bucket never qualifies.
  auto snap = MakeSnapshot({{0, 4}, {2, 4}, {4, 4}, {6, 4}, {8, 4}, {10, 1}});
  RebalancePlan plan = planner.Plan(snap, map);
  ASSERT_FALSE(plan.empty());
  ASSERT_EQ(plan.buckets.size(), 2u);
  EXPECT_EQ(plan.buckets[0], 0u);  // equal loads: bucket index breaks ties
  EXPECT_EQ(plan.buckets[1], 2u);
}

TEST(RebalancePlannerTest, OvershootGuardSkipsBucketsThatWouldFlipTheImbalance) {
  RebalancePolicy policy;
  policy.imbalance_threshold = 1.0;
  policy.max_moves_per_round = 8;
  RebalancePlanner planner(policy);
  ShardMap map(2);
  // Moving the 10 leaves 18 vs 10; the 9 and the 8 would push the destination above the
  // source, so both are skipped even though the round cap has room — but the cold 1-load
  // bucket still fits (17 vs 11), showing the guard is per-bucket, not a hard stop.
  auto snap = MakeSnapshot({{0, 10}, {2, 9}, {4, 8}, {6, 1}});
  RebalancePlan plan = planner.Plan(snap, map);
  EXPECT_EQ(plan.buckets, (std::vector<uint32_t>{0, 6}));
}

TEST(RebalancePlannerTest, DeterministicIncludingTies) {
  RebalancePolicy policy;
  policy.imbalance_threshold = 1.0;
  RebalancePlanner planner(policy);
  ShardMap map(4);
  // Equal-load buckets force tie-breaks on both the shard pick and the bucket order.
  auto snap = MakeSnapshot({{0, 10}, {4, 10}, {8, 10}, {1, 5}, {2, 5}, {3, 5}});
  RebalancePlan a = planner.Plan(snap, map);
  RebalancePlan b = planner.Plan(snap, map);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.dest, b.dest);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.source, 0u);  // ties break toward the lower shard index
  EXPECT_EQ(a.dest, 1u);
  EXPECT_EQ(a.buckets[0], 0u);  // and the lower bucket index
}

// --- Admin ACL on the MIG_*/REB_* control plane --------------------------------------------

TEST(AdminAclTest, NonAdminClientsAreDeniedMigrationAndStatsOps) {
  ShardedCluster cluster(Options(2, 223), KvFactory());
  ShardedClient* client = cluster.AddClient();

  // MIG_SEAL from a regular client: ordered, answered with the clean denial, NOT executed —
  // the bucket still serves afterwards.
  Bytes key = KeysInBucket(0, 1, "acl-")[0];
  auto seal = cluster.op_builder()->SealBucketOp(0);
  ASSERT_TRUE(seal.has_value());
  auto denied = cluster.Execute(client, *seal);
  ASSERT_TRUE(denied.has_value());
  EXPECT_TRUE(Service::IsAccessDeniedResult(*denied)) << ToString(*denied);

  auto put = cluster.Execute(client, KvService::PutOp(key, ToBytes("still-served")));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(ToString(*put), "ok");

  // REB_STATS is admin too.
  auto stats_denied = cluster.Execute(client, KvService::BucketStatsOp(0));
  ASSERT_TRUE(stats_denied.has_value());
  EXPECT_TRUE(Service::IsAccessDeniedResult(*stats_denied));

  // The same ops from an admin identity execute: the seal takes effect and the stats query
  // reports the replicated per-bucket size.
  ShardedClient* admin = cluster.AddAdminClient();
  uint32_t key_bucket = KeyRing::BucketForKey(key);
  auto stats = cluster.Execute(admin, KvService::BucketStatsOp(key_bucket));
  ASSERT_TRUE(stats.has_value());
  Reader r(*stats);
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_EQ(r.U64(), key.size() + std::string("still-served").size());

  auto sealed = cluster.Execute(admin, *seal);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(ToString(*sealed), "ok");
}

// --- Batched multi-bucket moves ------------------------------------------------------------

TEST(BatchMoveTest, BatchOfThreeBucketsPublishesExactlyOnce) {
  ShardedCluster cluster(Options(2, 227), KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  // Three shard-0 buckets with distinct key sets.
  std::vector<uint32_t> buckets = {0, 2, 4};
  std::vector<std::pair<Bytes, std::string>> resident;
  for (uint32_t b : buckets) {
    for (const Bytes& key : KeysInBucket(b, 4, "b" + std::to_string(b) + "-")) {
      std::string value = "v" + std::to_string(b) + "-" + ToString(key);
      ASSERT_EQ(
          ToString(*cluster.Execute(client, KvService::PutOp(key, ToBytes(value)))), "ok");
      resident.emplace_back(key, value);
    }
  }

  // Count version changes through the subscription seam (Publish also fires listeners on
  // unfreeze, so track versions, not notifications).
  uint64_t publishes = 0;
  uint64_t last_version = cluster.registry().version();
  cluster.registry().Subscribe([&]() {
    if (cluster.registry().version() != last_version) {
      last_version = cluster.registry().version();
      ++publishes;
    }
  });

  BatchMoveReport report = coordinator.MoveBuckets(buckets, /*dest_shard=*/1);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.no_op);
  EXPECT_EQ(report.moved, buckets);
  EXPECT_TRUE(report.rolled_back.empty());
  EXPECT_EQ(report.keys_moved, resident.size());
  // THE amortization claim: N buckets, one map publish, one version bump.
  EXPECT_EQ(report.publishes, 1u);
  EXPECT_EQ(publishes, 1u);
  EXPECT_EQ(report.map_version_after, report.map_version_before + 1);
  EXPECT_GT(report.freeze_window(), 0u);

  // Every bucket now routes to and is served by the destination with pre-move values; the
  // source purged all three.
  for (uint32_t b : buckets) {
    EXPECT_EQ(cluster.shard_map().ShardForBucket(b), 1u);
    EXPECT_TRUE(cluster.replica(0, 0)->service()->EnumerateBucket(b).empty());
  }
  for (const auto& [key, value] : resident) {
    auto r = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), value);
  }
}

TEST(BatchMoveTest, DuplicatesAndAlreadyOwnedBucketsAreSkipped) {
  ShardedCluster cluster(Options(2, 229), KvFactory());
  MigrationCoordinator coordinator(&cluster);
  // Bucket 1 already belongs to shard 1; bucket 0 is listed twice.
  std::vector<uint32_t> buckets = {0, 1, 0};
  BatchMoveReport report = coordinator.MoveBuckets(buckets, /*dest_shard=*/1);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.requested, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(report.skipped, (std::vector<uint32_t>{1}));
  EXPECT_EQ(report.moved, (std::vector<uint32_t>{0}));
  EXPECT_EQ(report.publishes, 1u);
}

// A batch that is entirely a no-op issues nothing: byte-identical to no call at all. A
// no-op single-bucket move is the same code path (a batch of one).
struct RunOutcome {
  std::vector<std::string> results;
  uint64_t events;
  SimTime now;
  Digest root_digest;

  bool operator==(const RunOutcome& other) const {
    return results == other.results && events == other.events && now == other.now &&
           root_digest == other.root_digest;
  }
};

RunOutcome RunSingleShard(bool noop_batch, uint64_t seed) {
  ShardedCluster cluster(Options(1, seed), KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);
  RunOutcome out;
  for (int i = 0; i < 10; ++i) {
    auto r = cluster.Execute(client,
                             KvService::PutOp(ToBytes("k" + std::to_string(i)), ToBytes("v")));
    EXPECT_TRUE(r.has_value());
    out.results.push_back(r.has_value() ? ToString(*r) : "<timeout>");
    if (noop_batch && i == 4) {
      // Every bucket already lives at shard 0: the batch must detect the no-op and issue
      // nothing — no ops, no freeze, no simulator events, not even a deadline timer.
      std::vector<uint32_t> buckets = {3, 7, 11};
      BatchMoveReport report =
          coordinator.MoveBuckets(buckets, /*dest_shard=*/0, /*timeout=*/kSecond,
                                  /*deadline=*/5 * kSecond);
      EXPECT_TRUE(report.ok);
      EXPECT_TRUE(report.no_op);
      EXPECT_EQ(report.publishes, 0u);
      EXPECT_EQ(report.skipped.size(), 3u);
      EXPECT_EQ(report.keys_moved, 0u);
      EXPECT_EQ(report.map_version_after, report.map_version_before);
    }
  }
  out.events = cluster.sim().executed_events();
  out.now = cluster.sim().Now();
  out.root_digest = cluster.replica(0, 0)->state().CurrentRootDigest();
  return out;
}

TEST(BatchMoveTest, NoOpBatchIsByteIdenticalToNoBatch) {
  RunOutcome with = RunSingleShard(/*noop_batch=*/true, 233);
  RunOutcome without = RunSingleShard(/*noop_batch=*/false, 233);
  EXPECT_TRUE(with == without);
}

// Mid-batch service-level failure: the destination fills up partway through the batch. The
// finished buckets still publish (one publish); the unfinished buckets roll back to their
// source — partial imports purged, destination re-sealed, source un-sealed — and keep
// serving there.
TEST(BatchMoveTest, MidBatchFailureRollsBackOnlyUnfinishedBuckets) {
  ShardedClusterOptions options = Options(2, 239);
  // Destination capacity: state = 64 pages * 4096B, minus the 512B moved bitmap, / 256B
  // slots. Shrink to 2 pages -> (8192-512)/256 = 30 slots. The first bucket (8 keys) fits;
  // the second one's imports hit "full" once the destination's own resident keys + bucket
  // one + part of bucket two exhaust the table.
  options.config.state_pages = 2;
  ShardedCluster cluster(options, KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  // Fill the destination with enough of its own keys that two 8-key buckets cannot both fit.
  size_t dest_resident = 0;
  for (int i = 0; dest_resident < 18 && i < 4'000'000; ++i) {
    Bytes key = ToBytes("dst-" + std::to_string(i));
    if (cluster.shard_map().ShardForKey(key) != 1) {
      continue;
    }
    ASSERT_EQ(ToString(*cluster.Execute(client, KvService::PutOp(key, ToBytes("d")))), "ok");
    ++dest_resident;
  }

  std::vector<uint32_t> buckets = {0, 2, 4};
  std::vector<std::vector<Bytes>> keys_of(buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    keys_of[i] = KeysInBucket(buckets[i], 8, "mb" + std::to_string(buckets[i]) + "-");
    for (const Bytes& key : keys_of[i]) {
      ASSERT_EQ(ToString(*cluster.Execute(
                    client, KvService::PutOp(key, ToBytes("keep-" + ToString(key))))),
                "ok");
    }
  }

  BatchMoveReport report = coordinator.MoveBuckets(buckets, /*dest_shard=*/1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("import rejected"), std::string::npos) << report.error;
  // Bucket 0 finished and published; at least the last bucket rolled back.
  ASSERT_FALSE(report.moved.empty());
  ASSERT_FALSE(report.rolled_back.empty());
  EXPECT_EQ(report.moved.size() + report.rolled_back.size(), buckets.size());
  EXPECT_EQ(report.moved[0], 0u);
  EXPECT_EQ(report.publishes, 1u);
  EXPECT_EQ(report.map_version_after, report.map_version_before + 1);

  // Nothing is frozen, the coordinator is idle, and every key reads back with its value —
  // moved buckets served by the destination, rolled-back buckets by the source.
  EXPECT_FALSE(coordinator.active());
  for (uint32_t b : buckets) {
    EXPECT_FALSE(cluster.registry().IsFrozen(b));
  }
  for (size_t i = 0; i < buckets.size(); ++i) {
    bool moved = false;
    for (uint32_t b : report.moved) {
      moved |= b == buckets[i];
    }
    EXPECT_EQ(cluster.shard_map().ShardForBucket(buckets[i]), moved ? 1u : 0u);
    for (const Bytes& key : keys_of[i]) {
      auto r = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(ToString(*r), "keep-" + ToString(key)) << "bucket " << buckets[i];
    }
    // Rolled-back buckets left no stray copies on the destination.
    if (!moved) {
      EXPECT_TRUE(cluster.replica(1, 0)->service()->EnumerateBucket(buckets[i]).empty());
    }
  }
}

// A batch that publishes must never be aborted afterwards: the deadline disarms at the
// publish (the point of no return), so a deadline landing inside the purge phase cannot
// "roll back" buckets whose clients already cut over.
TEST(BatchMoveTest, DeadlineDuringPurgePhaseDoesNotAbortAPublishedBatch) {
  // Run once without a deadline to learn the batch's publish/completion times, then rerun
  // the identical construction with a deadline between the two. Determinism makes the
  // second run's timing match the first up to the publish, where the deadline must disarm.
  auto run = [](std::optional<SimTime> deadline) {
    ShardedCluster cluster(Options(2, 257), KvFactory());
    ShardedClient* client = cluster.AddClient();
    MigrationCoordinator coordinator(&cluster);
    std::vector<uint32_t> buckets = {0, 2};
    for (uint32_t b : buckets) {
      for (const Bytes& key : KeysInBucket(b, 6, "pg" + std::to_string(b) + "-")) {
        EXPECT_EQ(ToString(*cluster.Execute(client, KvService::PutOp(key, ToBytes("v")))),
                  "ok");
      }
    }
    return coordinator.MoveBuckets(buckets, /*dest_shard=*/1, /*timeout=*/60 * kSecond,
                                   deadline.value_or(0));
  };
  BatchMoveReport probe = run(std::nullopt);
  ASSERT_TRUE(probe.ok) << probe.error;
  ASSERT_GT(probe.completed_time, probe.publish_time);  // the purge phase has real extent

  // The deadline is relative to the batch start (the StartMoveBuckets call at freeze time):
  // aim at the middle of the probe run's purge phase.
  SimTime mid_purge = (probe.publish_time + probe.completed_time) / 2;
  BatchMoveReport gated = run(mid_purge - probe.freeze_start);
  EXPECT_TRUE(gated.ok) << gated.error;
  EXPECT_EQ(gated.moved.size(), 2u);
  EXPECT_TRUE(gated.rolled_back.empty());
  EXPECT_EQ(gated.publishes, 1u);
}

// Mid-batch destination-group crash: the batch deadline fires, nothing publishes, and every
// bucket — including any already imported into the now-dead group — rolls back to the
// source, which keeps serving. The key space is never wedged behind a permanent freeze.
TEST(BatchMoveTest, DestinationCrashMidBatchRollsBackAtTheSource) {
  ShardedCluster cluster(Options(2, 241), KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  std::vector<uint32_t> buckets = {0, 2};
  std::vector<Bytes> keys;
  for (uint32_t b : buckets) {
    for (const Bytes& key : KeysInBucket(b, 6, "cr" + std::to_string(b) + "-")) {
      ASSERT_EQ(ToString(*cluster.Execute(client, KvService::PutOp(key, ToBytes("safe")))),
                "ok");
      keys.push_back(key);
    }
  }
  uint64_t version_before = cluster.registry().version();

  // Crash the whole destination group the instant the batch starts (its first seal is
  // already in flight at the source): the source-side chain completes, every
  // destination-side op hangs forever, and only the deadline can resolve the batch.
  std::shared_ptr<std::optional<BatchMoveReport>> report =
      std::make_shared<std::optional<BatchMoveReport>>();
  coordinator.StartMoveBuckets(buckets, /*dest_shard=*/1,
                               [report](const BatchMoveReport& r) { *report = r; },
                               /*deadline=*/5 * kSecond);
  ASSERT_TRUE(coordinator.active());
  cluster.CrashShard(1);
  cluster.sim().RunUntilCondition([&]() { return report->has_value(); },
                                  cluster.sim().Now() + 60 * kSecond);
  ASSERT_TRUE(report->has_value());

  EXPECT_FALSE((*report)->ok);
  EXPECT_NE((*report)->error.find("deadline"), std::string::npos) << (*report)->error;
  EXPECT_TRUE((*report)->moved.empty());
  EXPECT_EQ((*report)->publishes, 0u);
  EXPECT_EQ((*report)->rolled_back.size(), buckets.size());
  EXPECT_EQ(cluster.registry().version(), version_before);
  EXPECT_FALSE(coordinator.active());
  for (uint32_t b : buckets) {
    EXPECT_FALSE(cluster.registry().IsFrozen(b));
    EXPECT_EQ(cluster.shard_map().ShardForBucket(b), 0u);
  }
  // The un-sealed source serves every key again.
  for (const Bytes& key : keys) {
    auto r = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), "safe");
  }
}

// The destination dies while the *rollback* of a failed batch is mid-flight on the
// destination side (purging partial imports): the deadline orphans the hung cleanup chain
// and re-drives the rollback source-side, so the freezes still lift and the source serves
// every bucket — the key space is never wedged by a dead destination, even during rollback.
TEST(BatchMoveTest, DestinationCrashDuringRollbackStillLiftsFreezes) {
  // Identical construction to MidBatchFailureRollsBackOnlyUnfinishedBuckets (same seed):
  // the import failure lands at ~10.99ms and the rollback's destination-side purge is in
  // flight just after. The crash time below hits that window; if future changes shift the
  // timing, the crash lands elsewhere in the batch and this degrades into a plain
  // deadline-abort test — the assertions hold on both paths.
  ShardedClusterOptions options = Options(2, 239);
  options.config.state_pages = 2;
  ShardedCluster cluster(options, KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  size_t dest_resident = 0;
  for (int i = 0; dest_resident < 18 && i < 4'000'000; ++i) {
    Bytes key = ToBytes("dst-" + std::to_string(i));
    if (cluster.shard_map().ShardForKey(key) != 1) {
      continue;
    }
    ASSERT_EQ(ToString(*cluster.Execute(client, KvService::PutOp(key, ToBytes("d")))), "ok");
    ++dest_resident;
  }
  std::vector<uint32_t> buckets = {0, 2, 4};
  std::vector<Bytes> keys;
  for (uint32_t b : buckets) {
    for (const Bytes& key : KeysInBucket(b, 8, "mb" + std::to_string(b) + "-")) {
      ASSERT_EQ(ToString(*cluster.Execute(
                    client, KvService::PutOp(key, ToBytes("keep-" + ToString(key))))),
                "ok");
      keys.push_back(key);
    }
  }

  uint64_t version_before = cluster.registry().version();
  std::shared_ptr<std::optional<BatchMoveReport>> report =
      std::make_shared<std::optional<BatchMoveReport>>();
  coordinator.StartMoveBuckets(buckets, /*dest_shard=*/1,
                               [report](const BatchMoveReport& r) { *report = r; },
                               /*deadline=*/100 * kMillisecond);
  cluster.sim().ScheduleAt(11 * kMillisecond, [&cluster]() { cluster.CrashShard(1); });
  cluster.sim().RunUntilCondition([&]() { return report->has_value(); },
                                  cluster.sim().Now() + 60 * kSecond);
  ASSERT_TRUE(report->has_value());

  EXPECT_FALSE((*report)->ok);
  EXPECT_EQ((*report)->publishes, 0u);
  EXPECT_TRUE((*report)->moved.empty());
  EXPECT_EQ((*report)->rolled_back.size(), buckets.size());
  EXPECT_EQ(cluster.registry().version(), version_before);
  EXPECT_FALSE(coordinator.active());
  for (uint32_t b : buckets) {
    EXPECT_FALSE(cluster.registry().IsFrozen(b));
    EXPECT_EQ(cluster.shard_map().ShardForBucket(b), 0u);
  }
  for (const Bytes& key : keys) {
    auto r = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), "keep-" + ToString(key));
  }
}

// An orphaned import left at a destination by an aborted move (the deadline path skips
// destination cleanup when the group looks dead — it may only have been slow) must not
// resurrect a deleted key when the bucket later migrates there for real: MIG_ACCEPT purges
// stale local entries before the fresh import set lands.
TEST(BatchMoveTest, AcceptPurgesOrphanedImportsSoDeletedKeysStayDeleted) {
  ShardedCluster cluster(Options(2, 263), KvFactory());
  ShardedClient* client = cluster.AddClient();
  ShardedClient* admin = cluster.AddAdminClient();
  MigrationCoordinator coordinator(&cluster);

  std::vector<Bytes> keys = KeysInBucket(0, 2, "or-");  // bucket 0, owned by shard 0
  ASSERT_EQ(ToString(*cluster.Execute(client, KvService::PutOp(keys[0], ToBytes("live")))),
            "ok");

  // Simulate the aborted-move leftover: keys[1] sits imported at the destination while the
  // source (which owns the bucket) no longer has it — the client then deletes... nothing,
  // it was never at the owner; the orphan alone must not resurface.
  auto orphan = cluster.op_builder()->ImportEntryOp(keys[1], ToBytes("stale-ghost"));
  ASSERT_TRUE(orphan.has_value());
  auto planted = ExecuteOnSim(cluster.sim(), admin->endpoint(1), *orphan,
                              /*read_only=*/false, 30 * kSecond);
  ASSERT_TRUE(planted.has_value());
  ASSERT_EQ(ToString(*planted), "ok");

  // The real move: accept at the destination must purge the ghost before importing.
  std::vector<uint32_t> buckets = {0};
  BatchMoveReport report = coordinator.MoveBuckets(buckets, /*dest_shard=*/1);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.keys_moved, 1u);  // only the live key was at the owner

  auto live = cluster.Execute(client, KvService::GetOp(keys[0]), /*read_only=*/true);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(ToString(*live), "live");
  // The ghost is gone: served by the new owner as a miss, not the stale value.
  auto ghost = cluster.Execute(client, KvService::GetOp(keys[1]), /*read_only=*/true);
  ASSERT_TRUE(ghost.has_value());
  EXPECT_TRUE(ghost->empty()) << ToString(*ghost);
}

// --- End-to-end: the controller moves load off a hot group under skewed traffic -----------

TEST(RebalanceControllerTest, SkewedLoadTriggersMovesAndDataSurvives) {
  ShardedCluster cluster(Options(2, 251), KvFactory());
  // Trace the control plane too: every executed round should retire a rebalance timeline.
  // (A high request rate keeps per-request tracing out of the way; admin ops bypass it.)
  cluster.tracer().set_sample_every(1 << 20);

  RebalanceControllerOptions options;
  options.interval = 100 * kMillisecond;
  options.policy.imbalance_threshold = 1.1;
  options.policy.max_moves_per_round = 4;
  options.policy.min_bucket_load = 2.0;
  RebalanceController controller(&cluster, options);
  controller.Start();

  // All traffic hammers shard 0's buckets (every hot key routes there initially): a
  // maximally imbalanced workload the controller must spread.
  std::vector<Bytes> hot;
  for (uint32_t b : {0u, 2u, 4u, 6u}) {
    for (const Bytes& key : KeysInBucket(b, 2, "hot" + std::to_string(b) + "-")) {
      hot.push_back(key);
    }
  }
  ShardedClosedLoopLoad load(
      &cluster, 8,
      [&hot](size_t c, uint64_t i) {
        return KvService::PutOp(hot[(c + i) % hot.size()], ToBytes("h" + std::to_string(i)));
      },
      /*read_only=*/false);
  ClosedLoopResult result = load.Run(/*warmup=*/300 * kMillisecond, /*duration=*/kSecond);
  controller.Stop();

  EXPECT_GT(result.ops_completed, 0u);
  const RebalanceController::Stats& stats = controller.stats();
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.plans_executed, 0u);
  EXPECT_GT(stats.buckets_moved, 0u);
  EXPECT_EQ(stats.batches_failed, 0u);
  // Some buckets now live on shard 1 and both groups carry load.
  size_t moved_buckets = 0;
  for (uint32_t b : {0u, 2u, 4u, 6u}) {
    moved_buckets += cluster.shard_map().ShardForBucket(b) == 1 ? 1 : 0;
  }
  EXPECT_GT(moved_buckets, 0u);
  // Every executed plan traced one snapshot → plan → dispatch → complete round, and the
  // batch moves it dispatched traced their own migration timelines underneath.
  size_t rounds_traced = 0;
  size_t moves_traced = 0;
  for (const TraceTimeline& tl : cluster.tracer().Completed()) {
    if (tl.kind == TraceKind::kRebalance) {
      ++rounds_traced;
      EXPECT_TRUE(tl.complete());
      EXPECT_TRUE(tl.monotonic());
    } else if (tl.kind == TraceKind::kMigration) {
      ++moves_traced;
    }
  }
  // A final batch may still be in flight when the load ends, so completed round timelines
  // can trail plans_executed by one — but never exceed it, and never drop to zero here.
  EXPECT_GE(rounds_traced, 1u);
  EXPECT_LE(rounds_traced, stats.plans_executed);
  EXPECT_GE(rounds_traced + 1, stats.plans_executed);
  EXPECT_GE(moves_traced, rounds_traced) << "a round completes only after its batch move";
  // Every hot key still readable with a value written by the load (no key lost in flight).
  ShardedClient* reader = cluster.AddClient();
  for (const Bytes& key : hot) {
    auto r = cluster.Execute(reader, KvService::GetOp(key), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->empty()) << ToString(key);
  }
}

// Same seed, same script: the controller's decisions are a pure function of the run.
TEST(RebalanceControllerTest, ControllerRunsAreDeterministic) {
  auto run = [](uint64_t seed) {
    ShardedCluster cluster(Options(2, seed), KvFactory());
    RebalanceControllerOptions options;
    options.interval = 100 * kMillisecond;
    options.policy.imbalance_threshold = 1.1;
    options.policy.min_bucket_load = 2.0;
    RebalanceController controller(&cluster, options);
    controller.Start();
    std::vector<Bytes> hot = KeysInBucket(0, 4, "det-");
    ShardedClosedLoopLoad load(
        &cluster, 4,
        [&hot](size_t c, uint64_t i) {
          return KvService::PutOp(hot[(c + i) % hot.size()], ToBytes("x"));
        },
        /*read_only=*/false);
    ClosedLoopResult result = load.Run(200 * kMillisecond, 600 * kMillisecond);
    controller.Stop();
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>(
        result.ops_completed, controller.stats().buckets_moved,
        controller.stats().plans_executed, cluster.registry().version());
  };
  EXPECT_EQ(run(777), run(777));
}

}  // namespace
}  // namespace bft
