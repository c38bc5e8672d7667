// View-change tests: the Fig 3-2/3-3 pure functions, plus integration tests that kill or
// silence primaries and check that the group re-elects and preserves committed state.
#include <gtest/gtest.h>

#include "src/core/view_change.h"
#include "src/service/counter_service.h"
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

Digest D(uint8_t x) {
  Digest d;
  d.bytes[0] = x;
  return d;
}

// --- ComputePq (Fig 3-2) --------------------------------------------------------------------

TEST(ComputePqTest, PreparedEntryEntersPset) {
  PqState pq;
  ComputePq({SeqObservation{5, D(1), 3, true, true}}, &pq);
  ASSERT_EQ(pq.pset.count(5), 1u);
  EXPECT_EQ(pq.pset[5].d, D(1));
  EXPECT_EQ(pq.pset[5].view, 3u);
}

TEST(ComputePqTest, PrePreparedOnlyEntersQsetNotPset) {
  PqState pq;
  ComputePq({SeqObservation{5, D(1), 3, true, false}}, &pq);
  EXPECT_EQ(pq.pset.count(5), 0u);
  ASSERT_EQ(pq.qset.count(5), 1u);
  EXPECT_EQ(pq.qset[5].size(), 1u);
}

TEST(ComputePqTest, LaterViewSupersedesPsetEntry) {
  PqState pq;
  ComputePq({SeqObservation{5, D(1), 3, true, true}}, &pq);
  ComputePq({SeqObservation{5, D(2), 4, true, true}}, &pq);
  EXPECT_EQ(pq.pset[5].d, D(2));
  EXPECT_EQ(pq.pset[5].view, 4u);
}

TEST(ComputePqTest, OldPsetEntrySurvivesWhenNothingNewPrepared) {
  PqState pq;
  ComputePq({SeqObservation{5, D(1), 3, true, true}}, &pq);
  ComputePq({}, &pq);  // nothing prepared in the view being left
  ASSERT_EQ(pq.pset.count(5), 1u);
  EXPECT_EQ(pq.pset[5].d, D(1));
}

TEST(ComputePqTest, QsetSameDigestUpdatesView) {
  PqState pq;
  ComputePq({SeqObservation{5, D(1), 3, true, false}}, &pq);
  ComputePq({SeqObservation{5, D(1), 4, true, false}}, &pq);
  ASSERT_EQ(pq.qset[5].size(), 1u);
  EXPECT_EQ(pq.qset[5][0].second, 4u);
}

TEST(ComputePqTest, QsetBoundedSpaceDropsLowestView) {
  PqState pq;
  ComputePq({SeqObservation{5, D(1), 1, true, false}}, &pq);
  ComputePq({SeqObservation{5, D(2), 2, true, false}}, &pq);
  ComputePq({SeqObservation{5, D(3), 3, true, false}}, &pq);
  // kMaxQsetViews == 2: the (D(1), 1) pair must have been evicted.
  ASSERT_EQ(pq.qset[5].size(), kMaxQsetViews);
  for (const auto& [d, v] : pq.qset[5]) {
    EXPECT_NE(d, D(1));
  }
}

// --- RunDecisionProcedure (Fig 3-3) -------------------------------------------------------------

ViewChangeMsg Vc(NodeId replica, SeqNo h, std::vector<std::pair<SeqNo, Digest>> checkpoints,
                 std::vector<ViewChangeMsg::PEntry> p = {},
                 std::vector<ViewChangeMsg::QEntry> q = {}) {
  ViewChangeMsg m;
  m.view = 1;
  m.replica = replica;
  m.h = h;
  m.checkpoints = std::move(checkpoints);
  m.p = std::move(p);
  m.q = std::move(q);
  return m;
}

ReplicaConfig Cfg4() {
  ReplicaConfig config;
  config.n = 4;
  config.checkpoint_period = 8;  // log_size() = 16 bounds the decision range
  return config;
}

TEST(DecisionTest, AllIdleChoosesCheckpointZeroAndNothingElse) {
  std::map<NodeId, ViewChangeMsg> s;
  for (NodeId r = 0; r < 3; ++r) {
    s[r] = Vc(r, 0, {{0, D(9)}});
  }
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  EXPECT_TRUE(d.checkpoint_selected);
  EXPECT_TRUE(d.complete);
  EXPECT_EQ(d.min_s, 0u);
  EXPECT_EQ(d.chkpt_digest, D(9));
  EXPECT_TRUE(d.chosen.empty());
}

TEST(DecisionTest, InsufficientMessagesSelectsNothing) {
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 0, {{0, D(9)}});
  s[1] = Vc(1, 0, {{0, D(9)}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  EXPECT_FALSE(d.checkpoint_selected);
}

TEST(DecisionTest, PreparedRequestIsChosen) {
  // Replica 0 prepared (seq 1, D(7), view 0); replicas 0 and 1 pre-prepared it.
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 0, {{0, D(9)}}, {{1, D(7), 0}}, {{1, {{D(7), 0}}}});
  s[1] = Vc(1, 0, {{0, D(9)}}, {}, {{1, {{D(7), 0}}}});
  s[2] = Vc(2, 0, {{0, D(9)}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  ASSERT_TRUE(d.complete);
  ASSERT_EQ(d.chosen.size(), 1u);
  EXPECT_EQ(d.chosen[0], std::make_pair(SeqNo{1}, D(7)));
}

TEST(DecisionTest, UnpreparedSeqGetsNullRequest) {
  // Replica 0 prepared seq 2 but nothing for seq 1: seq 1 must become a null request.
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 0, {{0, D(9)}}, {{2, D(7), 0}}, {{2, {{D(7), 0}}}});
  s[1] = Vc(1, 0, {{0, D(9)}}, {}, {{2, {{D(7), 0}}}});
  s[2] = Vc(2, 0, {{0, D(9)}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  ASSERT_TRUE(d.complete);
  ASSERT_EQ(d.chosen.size(), 2u);
  EXPECT_EQ(d.chosen[0], std::make_pair(SeqNo{1}, NullBatchDigest()));
  EXPECT_EQ(d.chosen[1], std::make_pair(SeqNo{2}, D(7)));
}

TEST(DecisionTest, MissingPayloadBlocksCompletion) {
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 0, {{0, D(9)}}, {{1, D(7), 0}}, {{1, {{D(7), 0}}}});
  s[1] = Vc(1, 0, {{0, D(9)}}, {}, {{1, {{D(7), 0}}}});
  s[2] = Vc(2, 0, {{0, D(9)}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return false; });
  EXPECT_FALSE(d.complete);
  ASSERT_EQ(d.missing_payloads.size(), 1u);
  EXPECT_EQ(d.missing_payloads[0], D(7));
}

TEST(DecisionTest, HigherViewPreparedWinsOverLower) {
  // Seq 1 prepared as D(1) in view 0 at replica 1 but as D(2) in view 2 at replica 0:
  // the later view's prepared certificate must win (it could only exist if D(1) did not
  // commit).
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 0, {{0, D(9)}}, {{1, D(2), 2}}, {{1, {{D(2), 2}}}});
  s[1] = Vc(1, 0, {{0, D(9)}}, {{1, D(1), 0}}, {{1, {{D(1), 0}, {D(2), 2}}}});
  s[2] = Vc(2, 0, {{0, D(9)}}, {}, {{1, {{D(2), 2}}}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  ASSERT_TRUE(d.complete);
  ASSERT_EQ(d.chosen.size(), 1u);
  EXPECT_EQ(d.chosen[0].second, D(2));
}

TEST(DecisionTest, CommittedRequestAlwaysSurvives) {
  // Theorem 3.2.1 scenario: a request committed with (seq 1, D(7), view 0) — so at least 2f+1
  // replicas prepared it. Any quorum of view-changes contains at least f+1 of those. The
  // decision must choose D(7), never null and never a different digest.
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 0, {{0, D(9)}}, {{1, D(7), 0}}, {{1, {{D(7), 0}}}});
  s[1] = Vc(1, 0, {{0, D(9)}}, {{1, D(7), 0}}, {{1, {{D(7), 0}}}});
  s[2] = Vc(2, 0, {{0, D(9)}}, {{1, D(7), 0}}, {{1, {{D(7), 0}}}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  ASSERT_TRUE(d.complete);
  ASSERT_EQ(d.chosen.size(), 1u);
  EXPECT_EQ(d.chosen[0].second, D(7));
}

TEST(DecisionTest, CheckpointNeedsWeakCertificate) {
  // A lone replica claiming stable checkpoint 8 cannot drag min_s to 8 (f+1 must vouch for
  // it), and its h=8 blocks checkpoint 0 from reaching 2f+1 h<=0 votes — the primary must
  // wait for a fourth message.
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 8, {{0, D(9)}, {8, D(5)}});
  s[1] = Vc(1, 0, {{0, D(9)}});
  s[2] = Vc(2, 0, {{0, D(9)}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  EXPECT_FALSE(d.checkpoint_selected);

  // With the fourth (honest) message, checkpoint 0 gets its 2f+1 and is selected; the lone
  // claim of checkpoint 8 still lacks a weak certificate.
  s[3] = Vc(3, 0, {{0, D(9)}});
  d = RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  ASSERT_TRUE(d.checkpoint_selected);
  EXPECT_EQ(d.min_s, 0u);
}

TEST(DecisionTest, PicksHighestEligibleCheckpoint) {
  std::map<NodeId, ViewChangeMsg> s;
  s[0] = Vc(0, 8, {{0, D(9)}, {8, D(5)}});
  s[1] = Vc(1, 8, {{0, D(9)}, {8, D(5)}});
  s[2] = Vc(2, 0, {{0, D(9)}, {8, D(5)}});
  ViewChangeDecision d =
      RunDecisionProcedure(Cfg4(), s, [](const Digest&) { return true; });
  ASSERT_TRUE(d.checkpoint_selected);
  EXPECT_EQ(d.min_s, 8u);
  EXPECT_EQ(d.chkpt_digest, D(5));
}

// --- Integration: live view changes ------------------------------------------------------------------

TEST(ViewChangeIntegrationTest, CrashedPrimaryIsReplaced) {
  Cluster cluster(SmallCluster(21), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  cluster.replica(0)->Crash();  // primary of view 0
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 2u);
  // Some replica must have moved past view 0.
  EXPECT_GE(cluster.replica(1)->view(), 1u);
}

TEST(ViewChangeIntegrationTest, MutePrimaryIsReplaced) {
  Cluster cluster(SmallCluster(22), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  cluster.replica(0)->SetMute(true);  // Byzantine-silent primary
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 2u);
}

TEST(ViewChangeIntegrationTest, PrimaryIgnoringLargeRequestsIsReplaced) {
  // Backups keep the first copy of a multicast 4 KB request without starting a timer; the
  // client's retransmission is what they relay, and that starts the view change.
  Cluster cluster(SmallCluster(23), [](NodeId) { return std::make_unique<NullService>(); });
  Client* client = cluster.AddClient();
  cluster.replica(0)->SetMute(true);  // primary of view 0
  std::optional<Bytes> result =
      cluster.Execute(client, NullService::MakeOp(false, 4096, 16), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 16u);
  EXPECT_GE(client->known_view(), 1u);
  EXPECT_GE(cluster.replica(1)->view(), 1u);
}

TEST(ViewChangeIntegrationTest, CommittedStateSurvivesViewChange) {
  Cluster cluster(SmallCluster(23), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  cluster.replica(0)->Crash();
  for (uint64_t i = 7; i <= 12; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i) << "state lost across view change";
  }
}

TEST(ViewChangeIntegrationTest, SuccessiveLeaderFailures) {
  // Kill primaries of views 0 and 1 in turn; f=1 means this only works because the second
  // crash happens after the first view change completes and the group is back to 3 live
  // replicas... with n=4 and two crashed replicas there is no quorum, so instead we mute
  // (Byzantine-silence) them one at a time and un-mute the first.
  Cluster cluster(SmallCluster(24), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  cluster.replica(0)->SetMute(true);
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond));
  cluster.replica(0)->SetMute(false);
  cluster.sim().RunFor(kSecond);

  NodeId next_primary = cluster.CurrentPrimary();
  cluster.replica(static_cast<int>(next_primary))->SetMute(true);
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 3u);
}

TEST(ViewChangeIntegrationTest, ViewChangeAfterCheckpointGarbageCollection) {
  // Force the failure after stability advanced, so the view change must pick a non-zero
  // checkpoint (min_s > 0).
  Cluster cluster(SmallCluster(25), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 12; ++i) {  // past checkpoint period 8
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  cluster.sim().RunFor(kSecond);
  EXPECT_GE(cluster.replica(1)->low_water(), 8u);

  cluster.replica(0)->Crash();
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 13u);
}

TEST(ViewChangeIntegrationTest, ForcedViewChangeIsHarmless) {
  Cluster cluster(SmallCluster(26), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  for (int r = 1; r < 4; ++r) {
    cluster.replica(r)->ForceViewChange();
  }
  cluster.sim().RunFor(5 * kSecond);
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 2u);
}

TEST(ViewChangeIntegrationTest, TwoFaultsToleratedWithSevenReplicas) {
  // n = 7 tolerates f = 2: silence two replicas — including the primary — and keep going.
  ClusterOptions options = SmallCluster(29);
  options.config.n = 7;
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  cluster.replica(0)->SetMute(true);  // the primary
  cluster.replica(4)->SetMute(true);  // a backup
  for (uint64_t i = 2; i <= 6; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
  EXPECT_GE(cluster.replica(1)->view(), 1u);
}

TEST(ViewChangeIntegrationTest, ThreeFaultsWithSevenReplicasBlocksSafely) {
  // n = 7, f = 2: a third silent replica exceeds the fault budget. Nothing may commit — but
  // nothing may go wrong either, and recovery of one replica restores liveness.
  ClusterOptions options = SmallCluster(30);
  options.config.n = 7;
  Cluster cluster(options, CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  cluster.replica(1)->SetMute(true);
  cluster.replica(2)->SetMute(true);
  cluster.replica(3)->SetMute(true);
  bool done = false;
  client->Invoke(CounterService::IncOp(), false, [&done](Bytes) { done = true; });
  cluster.sim().RunFor(5 * kSecond);
  EXPECT_FALSE(done) << "committed without a quorum of correct replicas";

  // After the third replica returns, the view-change timeouts have backed off exponentially
  // (by design: stability over availability), so convergence takes a while of simulated time.
  cluster.replica(3)->SetMute(false);
  ASSERT_TRUE(cluster.sim().RunUntilCondition([&done]() { return done; },
                                              cluster.sim().Now() + 1200 * kSecond));
}

TEST(ViewChangeIntegrationTest, PartitionHealsAndProgressResumes) {
  Cluster cluster(SmallCluster(27), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  // Isolate the primary; the rest elect a new one.
  cluster.net().Partition({0});
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 2u);

  // Heal; the isolated replica catches up via status retransmission and participates again.
  cluster.net().HealPartition();
  cluster.sim().RunFor(5 * kSecond);
  result = cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 3u);
}

TEST(ViewChangeIntegrationTest, MinorityPartitionCannotCommit) {
  Cluster cluster(SmallCluster(28), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  // Cut the group in half: no quorum anywhere; nothing can commit (safety over liveness).
  cluster.net().Partition({0, 1});
  bool done = false;
  client->Invoke(CounterService::IncOp(), false, [&done](Bytes) { done = true; });
  cluster.sim().RunFor(10 * kSecond);
  EXPECT_FALSE(done);

  cluster.net().HealPartition();
  ASSERT_TRUE(
      cluster.sim().RunUntilCondition([&done]() { return done; },
                                      cluster.sim().Now() + 120 * kSecond));
}

}  // namespace
}  // namespace bft
