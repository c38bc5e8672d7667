// Integration tests for hierarchical state transfer (Section 5.3.2): replicas that fall
// behind the log window fetch missing state and rejoin.
#include <gtest/gtest.h>

#include "src/service/counter_service.h"
#include "src/service/kv_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions TransferCluster(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.checkpoint_period = 4;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  return options;
}

TEST(StateTransferTest, LaggingReplicaCatchesUpViaTransfer) {
  Cluster cluster(TransferCluster(31),
                  [](NodeId) { return std::make_unique<CounterService>(); });
  Client* client = cluster.AddClient();

  // Cut replica 3 off, then run far past its log window (log_size 8).
  cluster.net().SetNodeDown(3, true);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond));
  }
  cluster.sim().RunFor(kSecond);
  EXPECT_LE(cluster.replica(3)->last_executed(), 8u);

  cluster.net().SetNodeDown(3, false);
  // Keep some traffic flowing so checkpoint certificates keep forming.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond));
  }
  SeqNo target = cluster.replica(0)->last_executed();
  ASSERT_TRUE(cluster.sim().RunUntilCondition(
      [&cluster, target]() { return cluster.replica(3)->last_executed() >= target; },
      cluster.sim().Now() + 120 * kSecond))
      << "replica 3 stuck at " << cluster.replica(3)->last_executed();

  EXPECT_GT(cluster.replica(3)->stats().state_transfers, 0u);
  EXPECT_GT(cluster.replica(3)->stats().pages_fetched, 0u);

  uint64_t value = 0;
  cluster.replica(3)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
  uint64_t expected = 0;
  cluster.replica(0)->state().Read(0, sizeof(expected), reinterpret_cast<uint8_t*>(&expected));
  EXPECT_EQ(value, expected) << "transferred state diverges";
}

TEST(StateTransferTest, TransferOnlyFetchesDifferingPages) {
  // With a KV store touching few pages, the hierarchical protocol must skip identical
  // subtrees: pages fetched should be far fewer than total pages.
  ClusterOptions options = TransferCluster(32);
  options.config.state_pages = 64;
  Cluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();

  cluster.net().SetNodeDown(3, true);
  for (int i = 0; i < 30; ++i) {
    std::string key = "key-" + std::to_string(i % 3);  // concentrate on a few pages
    ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(ToBytes(key), ToBytes("v")), false,
                                60 * kSecond));
  }
  cluster.net().SetNodeDown(3, false);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.Execute(client, KvService::PutOp(ToBytes("k"), ToBytes("w")), false,
                                60 * kSecond));
  }
  ASSERT_TRUE(cluster.sim().RunUntilCondition(
      [&cluster]() { return cluster.replica(3)->last_executed() >= 30; },
      cluster.sim().Now() + 120 * kSecond));
  EXPECT_GT(cluster.replica(3)->stats().pages_fetched, 0u);
  EXPECT_LT(cluster.replica(3)->stats().pages_fetched, 32u)
      << "hierarchy failed to skip identical subtrees";
}

TEST(StateTransferTest, RejoinedReplicaParticipatesInQuorums) {
  Cluster cluster(TransferCluster(33),
                  [](NodeId) { return std::make_unique<CounterService>(); });
  Client* client = cluster.AddClient();

  cluster.net().SetNodeDown(3, true);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond));
  }
  cluster.net().SetNodeDown(3, false);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond));
  }
  ASSERT_TRUE(cluster.sim().RunUntilCondition(
      [&cluster]() { return cluster.replica(3)->last_executed() >= 31; },
      cluster.sim().Now() + 120 * kSecond));

  // Now crash a different replica: the group only stays live if replica 3 really recovered.
  cluster.replica(1)->Crash();
  for (uint64_t i = 32; i <= 36; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value()) << "group lost liveness after rejoin + crash";
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

}  // namespace
}  // namespace bft
