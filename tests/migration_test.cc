// Live bucket migration of one bucket (a batch of one): freeze/seal/export/import/publish
// lifecycle, version-aware client routing (freeze queueing and stale-owner re-routes),
// interaction with view changes, and the migration metrics of committed and rolled-back
// moves. Multi-bucket batches and the no-op byte-identity guarantee live in
// rebalance_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/service/kv_service.h"
#include "src/service/null_service.h"
#include "src/shard/migration.h"
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

// --- ShardMap wire format ------------------------------------------------------------------

TEST(ShardMapSerializationTest, RoundTripsAndRejectsMalformedInput) {
  ShardMap map = ShardMap(4).WithBucketsMoved({7}, 2).WithBucketsMoved({4000}, 0);
  Bytes wire = map.Encode();
  std::optional<ShardMap> decoded = ShardMap::Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == map);
  EXPECT_EQ(decoded->version(), 3u);
  EXPECT_EQ(decoded->ShardForBucket(7), 2u);

  // Truncated, trailing garbage, out-of-range owner, zero shards: all rejected.
  EXPECT_FALSE(ShardMap::Decode(ByteView(wire.data(), wire.size() - 1)).has_value());
  Bytes longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(ShardMap::Decode(longer).has_value());
  Bytes bad_owner = wire;
  bad_owner[12] = 0xff;  // first owner u16 -> 0xff04 >= num_shards
  EXPECT_FALSE(ShardMap::Decode(bad_owner).has_value());
  Bytes zero_shards = wire;
  zero_shards[8] = zero_shards[9] = zero_shards[10] = zero_shards[11] = 0;
  EXPECT_FALSE(ShardMap::Decode(zero_shards).has_value());
}

// --- The full migration lifecycle ----------------------------------------------------------

TEST(MigrationTest, MovedBucketKeysServedByNewOwnerWithPreMoveValues) {
  ShardedCluster cluster(Options(2, 101), KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  uint32_t bucket = 0;  // owned by shard 0 under round-robin
  ASSERT_EQ(cluster.shard_map().ShardForBucket(bucket), 0u);
  std::vector<Bytes> keys = KeysInBucket(bucket, 12, "mv-");
  for (size_t i = 0; i < keys.size(); ++i) {
    auto r = cluster.Execute(client, KvService::PutOp(keys[i], ToBytes("v" + std::to_string(i))));
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(ToString(*r), "ok");
  }

  EXPECT_EQ(cluster.shard_map().ShardForBucket(bucket), 0u) << "source before the move";
  BatchMoveReport report = coordinator.MoveBuckets(std::vector<uint32_t>{bucket}, 1);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.no_op);
  EXPECT_EQ(report.moved, std::vector<uint32_t>{bucket});
  EXPECT_EQ(report.dest_shard, 1u);
  EXPECT_EQ(report.keys_moved, keys.size());
  EXPECT_GT(report.export_bytes, 0u);
  EXPECT_EQ(report.map_version_after, report.map_version_before + 1);
  EXPECT_GT(report.freeze_window(), 0);

  // The published map routes the bucket to the destination; every key reads back with its
  // pre-move value through the router.
  EXPECT_EQ(cluster.shard_map().ShardForBucket(bucket), 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto r = cluster.Execute(client, KvService::GetOp(keys[i]), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), "v" + std::to_string(i)) << "key " << i;
  }

  // Destination state holds the bucket; the source purged it (tombstones, zero live keys).
  EXPECT_EQ(cluster.replica(1, 0)->service()->EnumerateBucket(bucket).size(), keys.size());
  EXPECT_TRUE(cluster.replica(0, 0)->service()->EnumerateBucket(bucket).empty());
  // Direct entry export on the destination matches what was written.
  auto blob = cluster.replica(1, 0)->service()->ExportEntry(keys[0]);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(ToString(*blob), "v0");
}

// The coordinator narrates each move to the tracer: one admin-op timeline per move, with
// the freeze → seal → export → import → publish → complete milestones in order, retired
// when the move finishes. Admin ops bypass the hash-sampling gate, so any non-zero rate
// traces every move.
TEST(MigrationTest, MoveEmitsCompleteAdminTimeline) {
  ShardedCluster cluster(Options(2, 103), KvFactory());
  cluster.tracer().set_sample_every(1024);
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);
  for (const Bytes& key : KeysInBucket(0, 4, "tr-")) {
    ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key, ToBytes("v"))).has_value());
  }

  BatchMoveReport report = coordinator.MoveBuckets(std::vector<uint32_t>{0}, 1);
  ASSERT_TRUE(report.ok) << report.error;

  std::vector<TraceTimeline> moves;
  for (const TraceTimeline& tl : cluster.tracer().Completed()) {
    if (tl.kind == TraceKind::kMigration) {
      moves.push_back(tl);
    }
  }
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_TRUE(moves[0].complete());
  EXPECT_TRUE(moves[0].monotonic());
  EXPECT_GT(moves[0].total(), 0);
  // freeze and publish are stamped in the same events that set the report fields, but the
  // tracer clamps admin stamps to be non-decreasing (the sim clock is not monotone across
  // idle nodes), so the timeline's freeze→publish span bounds the reported window above.
  EXPECT_GE(moves[0].phase_time[4] - moves[0].phase_time[0], report.freeze_window());
  EXPECT_TRUE(cluster.tracer().Active().empty()) << "the move retired its timeline";
  EXPECT_EQ(cluster.metrics()
                .GetHistogram("bft_admin_phase_latency_us", "kind=\"migration\",phase=\"total\"")
                ->count(),
            1u);
}

TEST(MigrationTest, UnsupportedServiceFailsCleanlyWithoutFreezing) {
  ShardedClusterOptions options = Options(2, 103);
  ShardedCluster cluster(options,
                         [](size_t, NodeId) { return std::make_unique<NullService>(); });
  MigrationCoordinator coordinator(&cluster);
  uint64_t version_before = cluster.registry().version();

  BatchMoveReport report =
      coordinator.MoveBuckets(std::vector<uint32_t>{2}, /*dest_shard=*/1);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(cluster.registry().version(), version_before);
  EXPECT_FALSE(cluster.registry().IsFrozen(2));
  EXPECT_FALSE(coordinator.active());
}

// --- Version-aware client routing ----------------------------------------------------------

TEST(MigrationTest, FrozenBucketOpsQueueUntilPublish) {
  ShardedCluster cluster(Options(2, 107), KvFactory());
  ShardedClient* client = cluster.AddClient();
  uint32_t bucket = 2;  // shard 0's, empty
  ASSERT_EQ(cluster.shard_map().ShardForBucket(bucket), 0u);
  Bytes key = KeysInBucket(bucket, 1, "fz-")[0];

  cluster.registry().Freeze(bucket);
  bool completed = false;
  Bytes result;
  client->Invoke(KvService::PutOp(key, ToBytes("queued")), /*read_only=*/false,
                 [&](Bytes r) {
                   completed = true;
                   result = std::move(r);
                 });
  // The op is held in the router, not dispatched: nothing completes however long we run.
  cluster.sim().RunFor(2 * kSecond);
  EXPECT_FALSE(completed);
  EXPECT_EQ(client->pending_queued(), 1u);
  EXPECT_EQ(client->router_stats().frozen_queued, 1u);

  // Publishing the moved map re-dispatches to the new owner; the op completes there.
  cluster.registry().Publish(cluster.shard_map().WithBucketsMoved({bucket}, 1));
  cluster.sim().RunUntilCondition([&]() { return completed; },
                                  cluster.sim().Now() + 30 * kSecond);
  ASSERT_TRUE(completed);
  EXPECT_EQ(ToString(result), "ok");
  EXPECT_EQ(client->pending_queued(), 0u);
  auto stored = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(ToString(*stored), "queued");
  // The write landed on the new owner's group only.
  EXPECT_EQ(cluster.replica(1, 0)->service()->EnumerateBucket(bucket).size(), 1u);
  EXPECT_TRUE(cluster.replica(0, 0)->service()->EnumerateBucket(bucket).empty());
}

TEST(MigrationTest, StaleMapClientIsReroutedInsteadOfMisdirected) {
  // A client whose map is stale across the move: its op reaches the old owner after the
  // bucket sealed. The old owner answers with the stale-owner marker (it must not execute
  // the op); the router intercepts the marker, queues, and re-routes after the publish —
  // the caller sees one normal completion, never the marker.
  ShardedCluster cluster(Options(2, 109), KvFactory());
  ShardedClient* client = cluster.AddClient();
  // MIG_SEAL is an admin op: replicas reject it from ids outside the reserved admin range.
  ShardedClient* admin = cluster.AddAdminClient();
  MigrationCoordinator coordinator(&cluster);

  uint32_t bucket = 0;
  std::vector<Bytes> keys = KeysInBucket(bucket, 3, "st-");
  for (const Bytes& key : keys) {
    ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(key, ToBytes("old"))).has_value());
  }

  // Seal the bucket at the source directly (simulating the window where the move is underway
  // but this client has not observed any freeze).
  auto seal = cluster.op_builder()->SealBucketOp(bucket);
  ASSERT_TRUE(seal.has_value());
  auto sealed = ExecuteOnSim(cluster.sim(), admin->endpoint(0), *seal,
                             /*read_only=*/false, 30 * kSecond);
  ASSERT_TRUE(sealed.has_value());
  ASSERT_EQ(ToString(*sealed), "ok");

  // The stale-mapped op: dispatched to shard 0 (the current map still says so) and answered
  // with the marker. The router intercepts and retries under its current routing state —
  // while the map still points at the sealed source it keeps probing (a rolled-back
  // migration would un-seal and let the retry through); it cannot complete.
  bool completed = false;
  Bytes result;
  client->Invoke(KvService::PutOp(keys[0], ToBytes("new")), /*read_only=*/false,
                 [&](Bytes r) {
                   completed = true;
                   result = std::move(r);
                 });
  cluster.sim().RunUntilCondition(
      [&]() { return client->router_stats().stale_reroutes > 0; },
      cluster.sim().Now() + 30 * kSecond);
  EXPECT_GE(client->router_stats().stale_reroutes, 1u);
  EXPECT_FALSE(completed);

  // Completing the migration freezes (parking the retrying op), moves the data, and
  // publishes the new map; the op re-routes and executes at the destination, exactly once.
  BatchMoveReport report = coordinator.MoveBuckets(std::vector<uint32_t>{bucket}, 1);
  ASSERT_TRUE(report.ok) << report.error;
  cluster.sim().RunUntilCondition([&]() { return completed; },
                                  cluster.sim().Now() + 30 * kSecond);
  ASSERT_TRUE(completed);
  EXPECT_EQ(ToString(result), "ok");

  auto read = cluster.Execute(client, KvService::GetOp(keys[0]), /*read_only=*/true);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(ToString(*read), "new");
  // The other keys kept their exported values.
  auto other = cluster.Execute(client, KvService::GetOp(keys[1]), /*read_only=*/true);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(ToString(*other), "old");

  // Exactly-once accounting: 3 preload PUTs + the rerouted PUT + 2 GETs = 6 caller-visible
  // completions; the intercepted stale leg must not inflate the aggregate.
  EXPECT_EQ(client->AggregateStats().ops_completed, 6u);
}

// --- No op lost, none double-executed ------------------------------------------------------

// Runs a fixed op script (writes and reads over hot keys in the migrating bucket plus cold
// keys elsewhere) and returns every client-observed result. With `migrate`, a live move of
// the hot bucket starts mid-script. The observable results must be identical either way:
// each op executes exactly once, in issue order, whichever group ends up serving it.
std::vector<std::string> RunScript(bool migrate, uint64_t seed) {
  ShardedCluster cluster(Options(2, seed), KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  uint32_t bucket = 0;
  std::vector<Bytes> hot = KeysInBucket(bucket, 8, "hot-");
  std::vector<std::string> results;
  auto run_op = [&](Bytes op, bool read_only) {
    auto r = cluster.Execute(client, std::move(op), read_only, 60 * kSecond);
    EXPECT_TRUE(r.has_value());
    results.push_back(r.has_value() ? ToString(*r) : "<timeout>");
  };

  for (size_t i = 0; i < hot.size(); ++i) {
    run_op(KvService::PutOp(hot[i], ToBytes("seed-" + std::to_string(i))), false);
  }

  std::shared_ptr<std::optional<BatchMoveReport>> report =
      std::make_shared<std::optional<BatchMoveReport>>();
  if (migrate) {
    cluster.sim().Schedule(20 * kMillisecond, [&coordinator, bucket, report]() {
      coordinator.StartMoveBuckets(std::span(&bucket, 1), 1,
                                   [report](const BatchMoveReport& r) { *report = r; });
    });
  }

  // Interleaved hot/cold traffic across the move: updates, reads, deletes.
  for (int i = 0; i < 36; ++i) {
    const Bytes& hot_key = hot[static_cast<size_t>(i) % hot.size()];
    switch (i % 4) {
      case 0:
        run_op(KvService::PutOp(hot_key, ToBytes("gen-" + std::to_string(i))), false);
        break;
      case 1:
        run_op(KvService::GetOp(hot_key), true);
        break;
      case 2:
        run_op(KvService::PutOp(ToBytes("cold-" + std::to_string(i)), ToBytes("c")), false);
        break;
      default:
        run_op(KvService::GetOp(ToBytes("cold-" + std::to_string(i - 1))), true);
        break;
    }
  }
  // Final sweep: every hot key's last written value must be visible, wherever it lives now.
  for (const Bytes& key : hot) {
    run_op(KvService::GetOp(key), true);
  }

  if (migrate) {
    cluster.sim().RunUntilCondition([&]() { return report->has_value(); },
                                    cluster.sim().Now() + 60 * kSecond);
    EXPECT_TRUE(report->has_value());
    if (report->has_value()) {
      EXPECT_TRUE((*report)->ok) << (*report)->error;
      EXPECT_EQ((*report)->keys_moved, hot.size());
      EXPECT_EQ(cluster.shard_map().ShardForBucket(bucket), 1u);
    }
  }
  return results;
}

TEST(MigrationTest, NoOpLostOrDoubleExecutedAcrossFreezeWindow) {
  std::vector<std::string> without = RunScript(/*migrate=*/false, 113);
  std::vector<std::string> with = RunScript(/*migrate=*/true, 113);
  EXPECT_EQ(without, with);
}

// --- Migration concurrent with a source-group view change ----------------------------------

TEST(MigrationTest, MoveCompletesWhileSourceGroupChangesView) {
  ShardedCluster cluster(Options(2, 127), KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  uint32_t bucket = 0;
  std::vector<Bytes> keys = KeysInBucket(bucket, 6, "vc-");
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(
        cluster.Execute(client, KvService::PutOp(keys[i], ToBytes("x" + std::to_string(i))))
            .has_value());
  }

  // Crash the source group's primary, then immediately start the move: the seal and export
  // ops land in a group that is mid view change and must ride it out (client retransmission
  // and the new primary's request replay).
  NodeId primary = cluster.CurrentPrimary(0);
  cluster.replica(0, cluster.config(0).ReplicaIndex(primary))->Crash();
  BatchMoveReport report =
      coordinator.MoveBuckets(std::vector<uint32_t>{bucket}, 1, /*timeout=*/120 * kSecond);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.keys_moved, keys.size());

  // The source group really did change views during the move.
  bool view_changed = false;
  for (int i = 0; i < 4; ++i) {
    if (cluster.replica(0, i)->stats().new_views_entered > 0) {
      view_changed = true;
    }
  }
  EXPECT_TRUE(view_changed);

  for (size_t i = 0; i < keys.size(); ++i) {
    auto r = cluster.Execute(client, KvService::GetOp(keys[i]), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), "x" + std::to_string(i));
  }
}

// --- Migration metrics, and the freeze window of a rolled-back move ----------------------

// Two one-bucket moves on one coordinator: one commits, one rolls back because the
// destination fills up mid-import. The bft_migration_* instruments count each outcome, and
// the rolled-back move reports the time its bucket really stayed frozen: until the rollback
// lifted the freeze.
TEST(MigrationTest, MetricsCountCommittedAndRolledBackMovesWithTheirFreezeWindows) {
  ShardedClusterOptions options = Options(2, 137);
  // Two pages -> (8192 - 512) / 256 = 30 KV slots per group (see
  // BatchMoveTest.MidBatchFailureRollsBackOnlyUnfinishedBuckets).
  options.config.state_pages = 2;
  ShardedCluster cluster(options, KvFactory());
  ShardedClient* client = cluster.AddClient();
  MigrationCoordinator coordinator(&cluster);

  // Pre-fill the destination so the small bucket fits and the big one cannot.
  size_t dest_resident = 0;
  for (int i = 0; dest_resident < 18 && i < 4'000'000; ++i) {
    Bytes key = ToBytes("dst-" + std::to_string(i));
    if (cluster.shard_map().ShardForKey(key) != 1) {
      continue;
    }
    ASSERT_EQ(ToString(*cluster.Execute(client, KvService::PutOp(key, ToBytes("d")))), "ok");
    ++dest_resident;
  }
  uint32_t small = 0;
  uint32_t big = 2;
  ASSERT_EQ(cluster.shard_map().ShardForBucket(small), 0u);
  ASSERT_EQ(cluster.shard_map().ShardForBucket(big), 0u);
  std::vector<Bytes> small_keys = KeysInBucket(small, 4, "ms-");
  std::vector<Bytes> big_keys = KeysInBucket(big, 12, "mb-");
  for (const std::vector<Bytes>* keys : {&small_keys, &big_keys}) {
    for (const Bytes& key : *keys) {
      ASSERT_EQ(ToString(*cluster.Execute(
                    client, KvService::PutOp(key, ToBytes("keep-" + ToString(key))))),
                "ok");
    }
  }

  MetricsRegistry& metrics = cluster.metrics();
  Counter* moves_ok = metrics.GetCounter("bft_migration_moves_ok_total");
  Counter* moves_failed = metrics.GetCounter("bft_migration_moves_failed_total");
  Counter* rollbacks = metrics.GetCounter("bft_migration_rollbacks_total");
  Counter* publishes = metrics.GetCounter("bft_migration_publishes_total");
  Counter* keys_moved = metrics.GetCounter("bft_migration_keys_moved_total");
  Histogram* freeze_window = metrics.GetHistogram("bft_migration_freeze_window_us");
  struct Snapshot {
    uint64_t ok, failed, rollbacks, publishes, keys, windows;
  };
  auto snapshot = [&]() {
    return Snapshot{moves_ok->value(),  moves_failed->value(), rollbacks->value(),
                    publishes->value(), keys_moved->value(),   freeze_window->count()};
  };

  // A committed move: one ok, one publish, its keys, one freeze window.
  Snapshot before = snapshot();
  BatchMoveReport committed = coordinator.MoveBuckets(std::vector<uint32_t>{small}, 1);
  ASSERT_TRUE(committed.ok) << committed.error;
  EXPECT_EQ(committed.keys_moved, small_keys.size());
  Snapshot after = snapshot();
  EXPECT_EQ(after.ok, before.ok + 1);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_EQ(after.rollbacks, before.rollbacks);
  EXPECT_EQ(after.publishes, before.publishes + 1);
  EXPECT_EQ(after.keys, before.keys + small_keys.size());
  EXPECT_EQ(after.windows, before.windows + 1);

  // A rolled-back move: the destination fills up partway through the imports.
  before = after;
  uint64_t version_before = cluster.registry().version();
  BatchMoveReport rolled = coordinator.MoveBuckets(std::vector<uint32_t>{big}, 1);
  EXPECT_FALSE(rolled.ok);
  EXPECT_NE(rolled.error.find("import rejected"), std::string::npos) << rolled.error;
  EXPECT_TRUE(rolled.moved.empty());
  EXPECT_EQ(rolled.rolled_back, std::vector<uint32_t>{big});
  EXPECT_EQ(rolled.publishes, 0u);
  EXPECT_EQ(cluster.registry().version(), version_before);
  after = snapshot();
  EXPECT_EQ(after.ok, before.ok);
  EXPECT_EQ(after.failed, before.failed + 1);
  EXPECT_EQ(after.rollbacks, before.rollbacks + 1);
  EXPECT_EQ(after.publishes, before.publishes);
  EXPECT_EQ(after.keys, before.keys);
  EXPECT_EQ(after.windows, before.windows + 1);

  // The bucket was frozen from the freeze until the rollback lifted it.
  EXPECT_GT(rolled.freeze_window(), 0);
  EXPECT_EQ(rolled.freeze_window(), rolled.completed_time - rolled.freeze_start);

  // Unfrozen, still owned and served by the source, every value intact; no stray copies at
  // the destination.
  EXPECT_FALSE(coordinator.active());
  EXPECT_FALSE(cluster.registry().IsFrozen(big));
  EXPECT_EQ(cluster.shard_map().ShardForBucket(big), 0u);
  for (const Bytes& key : big_keys) {
    auto r = cluster.Execute(client, KvService::GetOp(key), /*read_only=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(ToString(*r), "keep-" + ToString(key));
  }
  EXPECT_TRUE(cluster.replica(1, 0)->service()->EnumerateBucket(big).empty());
}

}  // namespace
}  // namespace bft
