// Client-proxy behaviour tests: reply certificates, digest-reply fallback, view tracking,
// and retransmission.
#include <gtest/gtest.h>

#include "src/service/counter_service.h"
#include "src/service/null_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions Options(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.config.checkpoint_period = 16;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  return options;
}

TEST(ClientTest, FallsBackWhenDesignatedReplierIsSilent) {
  // Drop every reply carrying a full result on its first attempt: the client assembles the
  // digest certificate but lacks the result, re-requests with "everyone replies", and still
  // completes.
  Cluster cluster(Options(101), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  size_t dropped = 0;
  cluster.net().SetFilter([&dropped](NodeId src, NodeId dst, const Bytes& msg) {
    if (!IsClientId(dst) || dropped > 8) {
      return Network::FilterAction::kDeliver;
    }
    std::optional<Message> m = DecodeMessage(msg);
    if (m.has_value() && std::holds_alternative<ReplyMsg>(*m) &&
        std::get<ReplyMsg>(*m).has_result) {
      ++dropped;
      return Network::FilterAction::kDrop;
    }
    return Network::FilterAction::kDeliver;
  });
  std::optional<Bytes> result =
      cluster.Execute(client, NullService::MakeOp(false, 16, 4096), false, 120 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 4096u);
  EXPECT_GT(dropped, 0u);
  std::string labels = "client=\"" + std::to_string(client->id()) + "\"";
  EXPECT_GE(cluster.metrics().GetCounter("bft_client_result_refetches_total", labels)->value(),
            1u);
}

TEST(ClientTest, TracksViewAndFollowsNewPrimary) {
  Cluster cluster(Options(102), [](NodeId) { return std::make_unique<CounterService>(); });
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  EXPECT_EQ(client->known_view(), 0u);

  cluster.replica(0)->SetMute(true);
  ASSERT_TRUE(
      cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond).has_value());
  EXPECT_GE(client->known_view(), 1u) << "client failed to learn the new view from replies";

  // Subsequent requests go straight to the new primary: no extra retransmissions needed.
  uint64_t retrans_before = client->stats().retransmissions;
  ASSERT_TRUE(
      cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond).has_value());
  EXPECT_EQ(client->stats().retransmissions, retrans_before);
}

TEST(ClientTest, RetransmitsWhenPrimaryLosesRequest) {
  // Drop the client's first transmission entirely: the retry timer must recover the op.
  Cluster cluster(Options(103), [](NodeId) { return std::make_unique<CounterService>(); });
  Client* client = cluster.AddClient();
  bool first = true;
  cluster.net().SetFilter([&first](NodeId src, NodeId dst, const Bytes& msg) {
    if (IsClientId(src) && first) {
      first = false;
      return Network::FilterAction::kDrop;
    }
    return Network::FilterAction::kDeliver;
  });
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(client->stats().retransmissions, 1u);
  EXPECT_EQ(CounterService::DecodeValue(*result), 1u);
}

TEST(ClientTest, LostLargeRequestToPrimaryDoesNotChangeView) {
  // Only the primary's copy of a multicast 4 KB request is lost. Backups keep theirs without
  // starting a view-change timer (shorter than the client's retry timer), so the client's
  // retransmission recovers the op in view 0.
  Cluster cluster(Options(106), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  NodeId primary = cluster.config().PrimaryOf(0);
  bool dropped = false;
  cluster.net().SetFilter([&](NodeId src, NodeId dst, const Bytes&) {
    if (IsClientId(src) && dst == primary && !dropped) {
      dropped = true;
      return Network::FilterAction::kDrop;
    }
    return Network::FilterAction::kDeliver;
  });
  std::optional<Bytes> result =
      cluster.Execute(client, NullService::MakeOp(false, 4096, 16), false, 120 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(dropped);
  cluster.sim().RunFor(kSecond);
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    EXPECT_EQ(cluster.replica(i)->view(), 0u) << "replica " << i;
  }
}

TEST(ClientTest, StatsAccumulateAcrossOperations) {
  Cluster cluster(Options(104), [](NodeId) { return std::make_unique<CounterService>(); });
  Client* client = cluster.AddClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  EXPECT_EQ(client->stats().ops_completed, 5u);
  EXPECT_GE(client->stats().total_latency, 5 * client->stats().last_latency / 2);
  EXPECT_FALSE(client->busy());
}

TEST(ClientTest, TentativeRepliesNeedQuorumNotWeakCertificate) {
  // With one replica mute, only 3 replies arrive. Tentative replies need 2f+1 = 3 matching,
  // so operations still complete — but with zero margin; verify they do.
  Cluster cluster(Options(105), [](NodeId) { return std::make_unique<CounterService>(); });
  cluster.replica(3)->SetMute(true);
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 3; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

}  // namespace
}  // namespace bft
