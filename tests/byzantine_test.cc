// Adversarial tests: actively malicious behaviour beyond crash/mute — tampered messages,
// replayed traffic, forged requests, selective delivery — must never violate safety.
#include <gtest/gtest.h>

#include "src/core/messages.h"
#include "src/core/view_change.h"
#include "src/service/counter_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions SmallCluster(uint64_t seed) {
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

uint64_t CounterAt(Cluster& cluster, int replica) {
  uint64_t v = 0;
  cluster.replica(replica)->state().Read(0, sizeof(v), reinterpret_cast<uint8_t*>(&v));
  return v;
}

TEST(ByzantineTest, TamperedMessagesAreRejectedEverywhere) {
  Cluster cluster(SmallCluster(61), CounterFactory());
  // Flip a byte in every protocol message from replica 3 (a Byzantine sender corrupting its
  // own traffic): receivers must reject them all, and the group still commits.
  cluster.net().SetFilter([](NodeId src, NodeId dst, const Bytes& msg) {
    if (src == 3 && msg.size() > 32) {
      // Flip a byte in replica 0's authenticator slot (the 4-slot trailer ends the message;
      // slot 3 is the sender's own and unchecked): decodes fine, replica 0's MAC check fails.
      const_cast<Bytes&>(msg)[msg.size() - 32] ^= 0x5a;
    }
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
  uint64_t rejected = 0;
  for (int r = 0; r < 3; ++r) {
    rejected += cluster.replica(r)->stats().rejected_auth;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ByzantineTest, ReplayedTrafficDoesNotDoubleExecute) {
  Cluster cluster(SmallCluster(62), CounterFactory());
  // Record and immediately re-inject every client request (a replay attacker on the wire).
  Cluster* cptr = &cluster;
  cluster.net().SetFilter([cptr](NodeId src, NodeId dst, const Bytes& msg) {
    if (IsClientId(src)) {
      Bytes copy = msg;
      cptr->sim().Schedule(2 * kMillisecond, [cptr, dst, copy]() {
        cptr->net().Send(9999, dst, copy, cptr->sim().Now());
      });
    }
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 8; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i) << "replay caused double execution";
  }
  cluster.sim().RunFor(2 * kSecond);
  EXPECT_EQ(CounterAt(cluster, 0), 8u);
}

TEST(ByzantineTest, ForgedRequestsFromUnknownClientRejected) {
  Cluster cluster(SmallCluster(63), CounterFactory());
  // Inject a request claiming to be from a client that never established keys/identity and
  // with a garbage authenticator.
  RequestMsg forged;
  forged.client = kClientIdBase + 77;
  forged.timestamp = 1;
  forged.op = CounterService::IncOp();
  forged.auth = Bytes(32, 0x42);
  Bytes wire = EncodeMessage(Message(forged));
  for (NodeId r = 0; r < 4; ++r) {
    cluster.net().Send(9999, r, wire, cluster.sim().Now());
  }
  cluster.sim().RunFor(2 * kSecond);
  EXPECT_EQ(CounterAt(cluster, 0), 0u) << "forged request executed";

  // The group still works for a real client.
  Client* client = cluster.AddClient();
  EXPECT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
}

TEST(ByzantineTest, AlteredRequestOpIsRejectedEverywhere) {
  // A man in the middle rewrites the op of every client request after the client computed
  // its authenticator, keeping that authenticator: add(1) becomes add(100). The MACs cover
  // the request digest, so every replica must reject the request and it never executes.
  Cluster cluster(SmallCluster(66), CounterFactory());
  int altered = 0;
  cluster.net().SetFilter([&altered](NodeId src, NodeId dst, const Bytes& msg) {
    std::optional<Message> decoded = DecodeMessage(msg);
    if (IsClientId(src) && decoded.has_value() && std::holds_alternative<RequestMsg>(*decoded)) {
      RequestMsg req = std::get<RequestMsg>(*decoded);
      Bytes op = req.op.Copy();  // a request's op is immutable: rebuild it
      op[op.size() - 8] = 100;   // the delta's low byte
      req.op = op;
      Bytes wire = EncodeMessage(Message(req));
      EXPECT_EQ(wire.size(), msg.size());
      const_cast<Bytes&>(msg) = wire;
      ++altered;
    }
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  EXPECT_FALSE(
      cluster.Execute(client, CounterService::AddOp(1), false, 5 * kSecond).has_value());
  EXPECT_GT(altered, 0);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(cluster.replica(r)->stats().rejected_auth, 0u) << "replica " << r;
    EXPECT_EQ(cluster.replica(r)->last_executed(), 0u) << "replica " << r;
    EXPECT_EQ(CounterAt(cluster, r), 0u) << "replica " << r << " executed the altered op";
  }
}

TEST(ByzantineTest, SelectiveDeliveryCannotForkState) {
  // The Byzantine network delivers replica 1's messages only to replica 2 and vice versa —
  // an attempt to make two "sides" see different histories. Safety: all replicas that
  // execute agree.
  Cluster cluster(SmallCluster(64), CounterFactory());
  cluster.net().SetFilter([](NodeId src, NodeId dst, const Bytes& msg) {
    if ((src == 1 && dst == 3) || (src == 3 && dst == 1)) {
      return Network::FilterAction::kDrop;
    }
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 10; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
  cluster.sim().RunFor(2 * kSecond);
  // Every replica that executed reached the same value; nobody diverged.
  for (int r = 0; r < 4; ++r) {
    if (cluster.replica(r)->last_executed() >= 10) {
      EXPECT_EQ(CounterAt(cluster, r), 10u) << "replica " << r << " forked";
    }
  }
}

TEST(ByzantineTest, FaultyClientCannotMarkWritesReadOnly) {
  // A Byzantine client sets the read-only flag on a mutating op. The service-specific
  // IsReadOnly upcall rejects the classification and the op goes through the full protocol
  // (Section 5.1.3) — or, at worst, never executes; it must not execute divergently.
  Cluster cluster(SmallCluster(65), CounterFactory());
  Client* client = cluster.AddClient();
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), /*read_only=*/true, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  cluster.sim().RunFor(2 * kSecond);
  // Executed exactly once on every replica, through the ordered path.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(CounterAt(cluster, r), 1u) << "replica " << r;
  }
}

TEST(ByzantineTest, DelayAttackCannotCauseBadReplies) {
  // An adversary that delays (but eventually delivers) all messages from the two fastest
  // replicas: safety must hold; the client simply waits longer.
  ClusterOptions options = SmallCluster(66);
  Cluster cluster(options, CounterFactory());
  Cluster* cptr = &cluster;
  cluster.net().SetFilter([cptr](NodeId src, NodeId dst, const Bytes& msg) {
    if (src <= 1 && dst <= 3 && cptr->sim().rng().Chance(0.5)) {
      Bytes copy = msg;
      cptr->sim().Schedule(20 * kMillisecond, [cptr, src, dst, copy]() {
        cptr->net().Send(src, dst, copy, cptr->sim().Now());
      });
      return Network::FilterAction::kDrop;  // dropped now, re-injected later
    }
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 6; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i) << "delay attack broke safety";
  }
}

TEST(ByzantineTest, MuteReplicaPlusMessageLossStillLive) {
  // f=1 fault budget fully spent on a mute replica, *plus* benign 3% loss on top: the
  // asynchronous-safety design must still deliver (retransmissions cover the loss).
  ClusterOptions options = SmallCluster(67);
  Cluster cluster(options, CounterFactory());
  cluster.replica(2)->SetMute(true);
  cluster.net().SetDropProbability(0.03);
  Client* client = cluster.AddClient();
  for (uint64_t i = 1; i <= 10; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

// Runs one op while replica 3 (mute, Byzantine) equivocates to replica 1: as the primary's
// pre-prepare for seq 1 reaches replica 1, replica 3 sends it two authentic prepares for
// (view 0, seq 1), the batch's real digest and a bogus one, `real_first` choosing the order.
// Replica 1 hears nothing else but the primary's pre-prepares, so its prepared certificate
// (its own prepare plus one more) depends on replica 3's vote alone. Returns replica 1's
// tentative execution point and its duplicate-message count.
std::pair<SeqNo, uint64_t> RunEquivocatingPrepares(bool real_first) {
  ClusterOptions options = SmallCluster(67);
  options.config.view_change_timeout = 10 * kSecond;
  Cluster cluster(options, CounterFactory());
  Replica* target = cluster.replica(1);
  Replica* byzantine = cluster.replica(3);
  byzantine->SetMute(true);
  bool injected = false;
  cluster.net().SetFilter([&](NodeId src, NodeId dst, const Bytes& msg) {
    if (dst != target->id() || src == byzantine->id()) {
      return Network::FilterAction::kDeliver;
    }
    std::optional<Message> decoded = DecodeMessage(msg);
    if (!decoded.has_value() || !std::holds_alternative<PrePrepareMsg>(*decoded)) {
      return Network::FilterAction::kDrop;
    }
    const PrePrepareMsg& pp = std::get<PrePrepareMsg>(*decoded);
    if (!injected && pp.seq == 1) {
      injected = true;
      Digest real = pp.BatchDigest();
      Digest bogus = ComputeDigest(ToBytes("another batch"));
      SimTime departure = cluster.sim().Now();
      for (const Digest& d : real_first ? std::vector{real, bogus} : std::vector{bogus, real}) {
        PrepareMsg prep;
        prep.view = pp.view;
        prep.seq = pp.seq;
        prep.batch_digest = d;
        prep.replica = byzantine->id();
        prep.auth = byzantine->auth().GenAuthMulticast(prep.AuthContent(), nullptr);
        cluster.net().Send(byzantine->id(), target->id(), EncodeTyped(prep), departure);
        departure += kMillisecond;  // the second arrives strictly later
      }
    }
    return Network::FilterAction::kDeliver;
  });
  Client* client = cluster.AddClient();
  client->Invoke(CounterService::IncOp(), false, [](Bytes) {});
  cluster.sim().RunFor(30 * kMillisecond);
  EXPECT_TRUE(injected);
  EXPECT_EQ(target->view(), 0u);
  std::string labels = "node=\"" + std::to_string(target->id()) + "\"";
  uint64_t duplicates = cluster.metrics().GetCounter("bft_messages_duplicate_total", labels)->value();
  return {target->last_tentative_executed(), duplicates};
}

TEST(ByzantineTest, EquivocatingReplicaContributesOnlyItsFirstPrepare) {
  // A replica's first prepare for a (view, seq) is its vote; a second one with another digest
  // is dropped as a duplicate and does not replace it.
  auto [bogus_first_executed, bogus_first_dups] = RunEquivocatingPrepares(false);
  EXPECT_EQ(bogus_first_executed, 0u) << "the second, matching prepare completed a certificate";
  EXPECT_EQ(bogus_first_dups, 1u);
  // Control: with the matching prepare first, the same traffic prepares and executes seq 1.
  auto [real_first_executed, real_first_dups] = RunEquivocatingPrepares(true);
  EXPECT_EQ(real_first_executed, 1u);
  EXPECT_EQ(real_first_dups, 1u);
}

// `m` with an authenticator made from replica `from`'s real keys, as it would multicast it: a
// Byzantine replica is free to send any such message.
template <typename M>
MsgBuffer AuthenticFrom(Cluster& cluster, int from, M m) {
  m.auth = cluster.replica(from)->auth().GenAuthMulticast(m.AuthContent(), nullptr);
  return MsgBuffer(EncodeTyped(m));
}

// The VIEW-CHANGE for view `v` that replica `from` sends while its log is empty.
ViewChangeMsg FreshViewChange(Cluster& cluster, int from, View v) {
  ViewChangeMsg vc;
  vc.view = v;
  vc.checkpoints.emplace_back(0, cluster.replica(from)->state().CheckpointDigest(0));
  vc.replica = cluster.replica(from)->id();
  return vc;
}

// The NEW-VIEW for `view` whose decision follows from `s`, unauthenticated.
NewViewMsg DecidedNewView(Cluster& cluster, View view, const std::map<NodeId, ViewChangeMsg>& s) {
  ViewChangeDecision decision =
      RunDecisionProcedure(cluster.config(), s, [](const Digest&) { return true; });
  EXPECT_TRUE(decision.complete);
  NewViewMsg nv;
  nv.view = view;
  for (const auto& [sender, vc] : s) {
    nv.vc_set.emplace_back(sender, vc.MessageDigest());
  }
  nv.min_s = decision.min_s;
  nv.chkpt_digest = decision.chkpt_digest;
  nv.chosen = decision.chosen;
  return nv;
}

TEST(ByzantineTest, OneReplicaCannotForceAViewChange) {
  // f+1 VIEW-CHANGEs for higher views make a replica join the smallest of those views, but
  // they must come from f+1 replicas: one replica asking for views 1 and 2 is still one.
  Cluster cluster(SmallCluster(68), CounterFactory());
  Replica* primary = cluster.replica(0);
  for (View v = 1; v <= 2; ++v) {
    primary->OnMessage(AuthenticFrom(cluster, 3, FreshViewChange(cluster, 3, v)));
  }
  EXPECT_EQ(primary->view(), 0u);
  EXPECT_TRUE(primary->view_active());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  EXPECT_EQ(primary->view(), 0u);
}

TEST(ByzantineTest, NewPrimaryCannotSubstituteAForgedViewChange) {
  // Replica 2, cut off from the network, is in view 1 with replica 0's authentic VIEW-CHANGE
  // (which reports a prepared request) and replica 3's ack for it. A forged "replica 0"
  // VIEW-CHANGE without the prepared request follows, with a bad MAC. The ack names the
  // authentic message's digest, so it cannot vouch for the forgery, and a NEW-VIEW from
  // replica 1 that cites the forgery (and so drops the prepared request) must be refused.
  Cluster cluster(SmallCluster(69), CounterFactory());
  cluster.net().SetFilter([](NodeId src, NodeId dst, const Bytes&) {
    return src == 2 || dst == 2 ? Network::FilterAction::kDrop : Network::FilterAction::kDeliver;
  });
  Replica* target = cluster.replica(2);
  target->ForceViewChange();

  ViewChangeMsg authentic = FreshViewChange(cluster, 0, 1);
  authentic.p.push_back({1, ComputeDigest(ToBytes("a prepared batch")), 0});
  target->OnMessage(AuthenticFrom(cluster, 0, authentic));
  ViewChangeMsg from3 = FreshViewChange(cluster, 3, 1);
  target->OnMessage(AuthenticFrom(cluster, 3, from3));
  ViewChangeAckMsg ack;
  ack.view = 1;
  ack.replica = 3;
  ack.vc_sender = 0;
  ack.vc_digest = authentic.MessageDigest();
  target->OnMessage(AuthenticFrom(cluster, 3, ack));

  ViewChangeMsg forged = FreshViewChange(cluster, 0, 1);
  forged.auth = Bytes(32, 0x5a);
  target->OnMessage(MsgBuffer(EncodeTyped(forged)));

  std::map<NodeId, ViewChangeMsg> s = {
      {0, forged}, {2, FreshViewChange(cluster, 2, 1)}, {3, from3}};
  target->OnMessage(AuthenticFrom(cluster, 1, DecidedNewView(cluster, 1, s)));
  EXPECT_EQ(target->view(), 1u);
  EXPECT_FALSE(target->view_active()) << "accepted a NEW-VIEW citing a forged VIEW-CHANGE";
}

// Replica 2, cut off from the network, moves to view 1 and receives authentic VIEW-CHANGEs
// from replicas 0 and 3, then replica 1's NEW-VIEW for the evidence {0, 2, 3}, as `edit`
// leaves it. Returns replica 2.
Replica* DeliverNewView(Cluster& cluster, const std::function<void(NewViewMsg&)>& edit) {
  cluster.net().SetFilter([](NodeId src, NodeId dst, const Bytes&) {
    return src == 2 || dst == 2 ? Network::FilterAction::kDrop : Network::FilterAction::kDeliver;
  });
  Replica* target = cluster.replica(2);
  target->ForceViewChange();
  std::map<NodeId, ViewChangeMsg> s;
  for (int r : {0, 2, 3}) {
    s[r] = FreshViewChange(cluster, r, 1);
    if (r != 2) {
      target->OnMessage(AuthenticFrom(cluster, r, s[r]));
    }
  }
  NewViewMsg nv = DecidedNewView(cluster, 1, s);
  edit(nv);
  target->OnMessage(AuthenticFrom(cluster, 1, nv));
  return target;
}

TEST(ByzantineTest, NewViewEvidenceMustNameHeldMessagesOnce) {
  // Control: the NEW-VIEW the evidence supports is accepted.
  {
    Cluster cluster(SmallCluster(70), CounterFactory());
    Replica* target = DeliverNewView(cluster, [](NewViewMsg&) {});
    EXPECT_EQ(target->view(), 1u);
    EXPECT_TRUE(target->view_active());
  }
  const Digest bogus = ComputeDigest(ToBytes("another view-change"));
  std::vector<std::pair<const char*, std::function<void(NewViewMsg&)>>> edits = {
      {"names replica 3 twice",
       [](NewViewMsg& nv) { nv.vc_set[1] = nv.vc_set[2]; }},
      {"names a non-replica id",
       [&](NewViewMsg& nv) { nv.vc_set.emplace_back(kClientIdBase + 1, bogus); }},
      {"gives the receiver's own VIEW-CHANGE another digest",
       [&](NewViewMsg& nv) { nv.vc_set[1].second = bogus; }},
  };
  for (const auto& [what, edit] : edits) {
    Cluster cluster(SmallCluster(70), CounterFactory());
    Replica* target = DeliverNewView(cluster, edit);
    EXPECT_EQ(target->view(), 1u) << what;
    EXPECT_FALSE(target->view_active()) << "accepted a NEW-VIEW that " << what;
  }
}

TEST(ByzantineTest, NewViewWithUnfoundedDecisionMovesToNextView) {
  // A NEW-VIEW whose decision does not follow from its evidence proves its primary faulty:
  // the receiver moves on to view 2 rather than wait for view 1's timer.
  Cluster cluster(SmallCluster(71), CounterFactory());
  Replica* target = DeliverNewView(cluster, [](NewViewMsg& nv) {
    nv.chosen.emplace_back(nv.min_s + 1, ComputeDigest(ToBytes("a batch nobody prepared")));
  });
  EXPECT_EQ(target->view(), 2u);
  EXPECT_FALSE(target->view_active());
}

}  // namespace
}  // namespace bft
