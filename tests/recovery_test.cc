// Proactive recovery tests (Chapter 4): key refreshment, estimation, recovery requests,
// state checking, and continued service during recoveries.
#include <gtest/gtest.h>

#include "src/service/counter_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions RecoveryCluster(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.checkpoint_period = 4;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  options.config.proactive_recovery = true;
  options.config.watchdog_period = 3600 * kSecond;  // tests trigger recovery explicitly
  options.config.key_refresh_period = 3600 * kSecond;
  options.config.recovery_reboot_time = 200 * kMillisecond;
  return options;
}

ServiceFactory CounterFactory() {
  return [](NodeId) { return std::make_unique<CounterService>(); };
}

// Runs client traffic until `pred` holds, failing the test on an op failure.
void PumpUntil(Cluster& cluster, Client* client, const std::function<bool()>& pred,
               int max_ops = 200) {
  for (int i = 0; i < max_ops && !pred(); ++i) {
    ASSERT_TRUE(
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond).has_value())
        << "op " << i << " failed during recovery";
    cluster.sim().RunFor(100 * kMillisecond);
  }
  EXPECT_TRUE(pred());
}

TEST(RecoveryTest, BackupRecoversWhileServiceRuns) {
  Cluster cluster(RecoveryCluster(41), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }

  cluster.replica(2)->StartRecovery();
  PumpUntil(cluster, client,
            [&cluster]() { return cluster.replica(2)->stats().recoveries >= 1; });
  EXPECT_GT(cluster.replica(2)->stats().last_recovery_duration, 0u);
}

TEST(RecoveryTest, PrimaryRecoveryTriggersViewChange) {
  Cluster cluster(RecoveryCluster(42), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  cluster.replica(0)->StartRecovery();  // the view-0 primary
  PumpUntil(cluster, client,
            [&cluster]() { return cluster.replica(0)->stats().recoveries >= 1; });
  EXPECT_GE(cluster.replica(1)->view(), 1u) << "recovering primary should hand off leadership";
}

TEST(RecoveryTest, CorruptedStateIsDetectedAndRepaired) {
  Cluster cluster(RecoveryCluster(43), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  cluster.sim().RunFor(kSecond);

  // An attacker scribbles over replica 2's memory without going through the protocol.
  cluster.replica(2)->CorruptStatePages(4);
  cluster.replica(2)->StartRecovery();
  PumpUntil(cluster, client,
            [&cluster]() { return cluster.replica(2)->stats().recoveries >= 1; });

  EXPECT_GT(cluster.replica(2)->stats().pages_fetched, 0u)
      << "state checking failed to detect the corruption";
  // The repaired replica must agree with the group.
  uint64_t v2 = 0;
  uint64_t v0 = 0;
  cluster.replica(2)->state().Read(0, sizeof(v2), reinterpret_cast<uint8_t*>(&v2));
  cluster.replica(0)->state().Read(0, sizeof(v0), reinterpret_cast<uint8_t*>(&v0));
  EXPECT_EQ(v2, v0);
}

TEST(RecoveryTest, KeyRefreshmentDoesNotDisruptService) {
  ClusterOptions options = RecoveryCluster(44);
  options.config.key_refresh_period = 500 * kMillisecond;  // aggressive refresh
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 20; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
    cluster.sim().RunFor(100 * kMillisecond);
  }
}

TEST(RecoveryTest, StaggeredWatchdogRecoveriesKeepServiceLive) {
  ClusterOptions options = RecoveryCluster(45);
  options.config.watchdog_period = 20 * kSecond;  // all replicas recover within the test
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();

  uint64_t expected = 0;
  for (int round = 0; round < 60; ++round) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value()) << "round " << round;
    EXPECT_EQ(CounterService::DecodeValue(*result), ++expected);
    cluster.sim().RunFor(kSecond);
  }
  uint64_t total_recoveries = 0;
  for (int r = 0; r < 4; ++r) {
    total_recoveries += cluster.replica(r)->stats().recoveries;
  }
  EXPECT_GE(total_recoveries, 2u) << "watchdogs never fired";
}

TEST(RecoveryTest, RecoveryRefreshesSessionKeys) {
  Cluster cluster(RecoveryCluster(46), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  uint64_t epoch_before = cluster.replica(2)->auth().my_epoch();
  cluster.replica(2)->StartRecovery();
  PumpUntil(cluster, client,
            [&cluster]() { return cluster.replica(2)->stats().recoveries >= 1; });
  EXPECT_GT(cluster.replica(2)->auth().my_epoch(), epoch_before);
  // Other replicas refreshed too (triggered by executing the recovery request).
  EXPECT_GT(cluster.replica(1)->auth().my_epoch(), 0u);
}

}  // namespace
}  // namespace bft
