// Integration tests for the normal-case three-phase protocol (Chapter 2/3) on a simulated
// cluster: agreement, exactly-once semantics, batching, optimizations, and fail-stop faults.
#include <gtest/gtest.h>

#include "src/core/messages.h"
#include "src/service/counter_service.h"
#include "src/service/kv_service.h"
#include "src/service/null_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions SmallCluster(uint64_t seed = 1) {
  ClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.checkpoint_period = 8;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  return options;
}

ServiceFactory CounterFactory() {
  return [](NodeId) { return std::make_unique<CounterService>(); };
}

TEST(ProtocolTest, SingleOperationCommits) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
}

TEST(ProtocolTest, SequentialOperationsAllExecuteInOrder) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 20; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, AllReplicasConverge) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  // Let commits propagate everywhere, then check every replica executed everything.
  cluster.sim().RunFor(2 * kSecond);
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_GE(cluster.replica(i)->last_executed(), 10u) << "replica " << i;
    uint64_t value = 0;
    cluster.replica(i)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
    EXPECT_EQ(value, 10u) << "replica " << i;
  }
}

TEST(ProtocolTest, ReadOnlyOperationSingleRoundTrip) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  cluster.sim().RunFor(kSecond);

  uint64_t msgs_before = cluster.net().messages_sent();
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::GetOp(), /*read_only=*/true);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
  // Read-only: one multicast request + n replies (plus possibly status traffic).
  uint64_t msgs = cluster.net().messages_sent() - msgs_before;
  EXPECT_LE(msgs, 10u);
}

TEST(ProtocolTest, ReadOnlyLatencyBeatsReadWrite) {
  Cluster cluster(SmallCluster(), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  SimTime rw = client->stats().last_latency;
  ASSERT_TRUE(cluster.Execute(client, CounterService::GetOp(), true).has_value());
  SimTime ro = client->stats().last_latency;
  EXPECT_LT(ro, rw);
}

TEST(ProtocolTest, MultipleClientsInterleave) {
  Cluster cluster(SmallCluster(), CounterFactory());
  std::vector<Client*> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(cluster.AddClient());
  }
  int completed = 0;
  for (Client* c : clients) {
    c->Invoke(CounterService::IncOp(), false, [&completed](Bytes) { ++completed; });
  }
  ASSERT_TRUE(cluster.sim().RunUntilCondition([&completed]() { return completed == 5; },
                                              10 * kSecond));
  cluster.sim().RunFor(kSecond);
  uint64_t value = 0;
  cluster.replica(0)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
  EXPECT_EQ(value, 5u);
}

TEST(ProtocolTest, SurvivesOneCrashedBackup) {
  Cluster cluster(SmallCluster(), CounterFactory());
  cluster.replica(2)->Crash();  // a backup
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, SurvivesOneMuteBackup) {
  Cluster cluster(SmallCluster(), CounterFactory());
  cluster.replica(1)->SetMute(true);  // Byzantine-silent backup
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, ExactlyOnceUnderMessageLoss) {
  ClusterOptions options = SmallCluster(7);
  Cluster cluster(options, CounterFactory());
  cluster.net().SetDropProbability(0.05);
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 15; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i) << "duplicate or lost execution";
  }
}

TEST(ProtocolTest, ExactlyOnceUnderDuplication) {
  ClusterOptions options = SmallCluster(8);
  Cluster cluster(options, CounterFactory());
  cluster.net().SetDropProbability(0.02);
  Cluster* c = &cluster;
  (void)c;
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 10; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, KvStoreBasicOperations) {
  ClusterOptions options = SmallCluster(3);
  Cluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();

  auto result = cluster.Execute(client, KvService::PutOp(ToBytes("key1"), ToBytes("value1")));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToString(*result), "ok");

  result = cluster.Execute(client, KvService::GetOp(ToBytes("key1")), true);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToString(*result), "value1");

  result = cluster.Execute(client, KvService::DelOp(ToBytes("key1")));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToString(*result), "ok");

  result = cluster.Execute(client, KvService::GetOp(ToBytes("key1")), true);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST(ProtocolTest, LargeRequestUsesSeparateTransmission) {
  ClusterOptions options = SmallCluster(4);
  Cluster cluster(options, [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  // 4 KB argument: above the 255-byte inline threshold.
  std::optional<Bytes> result =
      cluster.Execute(client, NullService::MakeOp(false, 4096, 16));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 16u);
}

TEST(ProtocolTest, LargeRequestReachesPrimaryOnce) {
  // The client multicasts a 4 KB request to every replica, the primary included, so backups
  // keep their copy instead of relaying it: one request message into the primary per op.
  Cluster cluster(SmallCluster(7), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  NodeId primary = cluster.config().PrimaryOf(0);
  int from_clients = 0;
  int from_replicas = 0;
  cluster.net().SetFilter([&](NodeId src, NodeId dst, const Bytes& msg) {
    std::optional<Message> m = DecodeMessage(msg);
    if (dst == primary && m.has_value() && std::holds_alternative<RequestMsg>(*m)) {
      ++(IsClientId(src) ? from_clients : from_replicas);
    }
    return Network::FilterAction::kDeliver;
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Execute(client, NullService::MakeOp(false, 4096, 16)).has_value());
  }
  EXPECT_EQ(from_clients, 10);
  EXPECT_EQ(from_replicas, 0);
  EXPECT_EQ(client->stats().retransmissions, 0u);
}

TEST(ProtocolTest, LaggingBackupCatchesUpFromRetransmittedVotes) {
  // Replica 3 misses every prepare and commit of an op, then the network heals. Its status
  // messages report seq 1 neither prepared nor committed, and its peers retransmit their own
  // prepares and commits: it executes the op with no view change and no state transfer.
  Cluster cluster(SmallCluster(13), CounterFactory());
  Replica* lagging = cluster.replica(3);
  bool dropping = true;
  int votes_after_heal = 0;
  cluster.net().SetFilter([&](NodeId src, NodeId dst, const Bytes& msg) {
    if (dst != lagging->id()) {
      return Network::FilterAction::kDeliver;
    }
    std::optional<Message> m = DecodeMessage(msg);
    bool vote = m.has_value() && (std::holds_alternative<PrepareMsg>(*m) ||
                                  std::holds_alternative<CommitMsg>(*m));
    if (vote && dropping) {
      return Network::FilterAction::kDrop;
    }
    votes_after_heal += vote ? 1 : 0;
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  EXPECT_EQ(lagging->last_tentative_executed(), 0u);

  dropping = false;
  ASSERT_TRUE(cluster.WaitForExecution(1, kSecond));
  EXPECT_EQ(lagging->last_executed(), 1u);
  EXPECT_GT(votes_after_heal, 0);
  EXPECT_EQ(lagging->view(), 0u);
  EXPECT_EQ(lagging->stats().view_changes_started, 0u);
  EXPECT_EQ(lagging->stats().state_transfers, 0u);
}

TEST(ProtocolTest, LargeReplyUsesDigestReplies) {
  ClusterOptions options = SmallCluster(5);
  Cluster cluster(options, [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  std::optional<Bytes> result = cluster.Execute(client, NullService::MakeOp(false, 16, 4096));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 4096u);
}

TEST(ProtocolTest, GarbageCollectionAdvancesWatermarks) {
  ClusterOptions options = SmallCluster(6);
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  // Push well past the checkpoint period (8) so the low-water mark must advance.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  cluster.sim().RunFor(2 * kSecond);
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_GE(cluster.replica(i)->low_water(), 8u) << "replica " << i;
    EXPECT_GT(cluster.replica(i)->stats().stable_checkpoints, 0u);
  }
}

TEST(ProtocolTest, BatchingAssignsOneSeqToManyRequests) {
  ClusterOptions options = SmallCluster(9);
  options.config.max_batch_requests = 8;
  Cluster cluster(options, CounterFactory());
  std::vector<Client*> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(cluster.AddClient());
  }
  int completed = 0;
  for (Client* c : clients) {
    c->Invoke(CounterService::IncOp(), false, [&completed](Bytes) { ++completed; });
  }
  ASSERT_TRUE(
      cluster.sim().RunUntilCondition([&completed]() { return completed == 8; }, 10 * kSecond));
  // With batching, 8 requests should need far fewer than 8 sequence numbers.
  EXPECT_LT(cluster.replica(0)->last_executed(), 8u);
  cluster.sim().RunFor(kSecond);
  uint64_t value = 0;
  cluster.replica(0)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
  EXPECT_EQ(value, 8u);
}

TEST(ProtocolTest, TentativeExecutionDisabledStillCorrect) {
  ClusterOptions options = SmallCluster(10);
  options.config.tentative_execution = false;
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, SignatureModeBftPk) {
  ClusterOptions options = SmallCluster(11);
  options.config.auth_mode = AuthMode::kSignature;
  // Signature-mode operations take tens of milliseconds; scale the timers accordingly so the
  // slow crypto is not mistaken for a faulty primary (as a deployment would configure them).
  options.config.view_change_timeout = 5 * kSecond;
  options.config.client_retry_timeout = 10 * kSecond;
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 3; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(ProtocolTest, SignatureModeSlowerThanMacMode) {
  SimTime mac_latency = 0;
  SimTime sig_latency = 0;
  {
    Cluster cluster(SmallCluster(12), CounterFactory());
    Client* client = cluster.AddClient();
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
    mac_latency = client->stats().last_latency;
  }
  {
    ClusterOptions options = SmallCluster(12);
    options.config.auth_mode = AuthMode::kSignature;
    Cluster cluster(options, CounterFactory());
    Client* client = cluster.AddClient();
    ASSERT_TRUE(
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond).has_value());
    sig_latency = client->stats().last_latency;
  }
  // The paper's headline: MACs beat signatures by orders of magnitude.
  EXPECT_GT(sig_latency, 10 * mac_latency);
}

TEST(ProtocolTest, MoreReplicasStillCommit) {
  for (int n : {7, 10}) {
    ClusterOptions options = SmallCluster(static_cast<uint64_t>(n));
    options.config.n = n;
    Cluster cluster(options, CounterFactory());
    Client* client = cluster.AddClient();
    std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
    ASSERT_TRUE(result.has_value()) << "n=" << n;
    EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
  }
}

}  // namespace
}  // namespace bft
