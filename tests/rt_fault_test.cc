// Real-clock fault coverage: the FaultTransport decorator in isolation (determinism,
// partitions) and the failure paths the paper actually argues about, exercised on the live
// runtime — a killed primary forcing a real-time view change, and a crashed replica
// rejoining via checkpoint/state transfer with nothing but its node id and key seed.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/common/thread_annotations.h"
#include "src/obs/export.h"
#include "src/runtime/fault_transport.h"
#include "src/runtime/inproc_transport.h"
#include "src/runtime/rt_cluster.h"
#include "src/service/kv_service.h"

namespace bft {
namespace {

// Minimal HTTP/1.0 GET against the AdminServer (loopback), reading the whole response.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// ---- FaultTransport in isolation ---------------------------------------------------------

struct CollectorSink : MessageSink {
  Mutex mu;
  std::vector<Bytes> got BFT_GUARDED_BY(mu);
  void EnqueueMessage(MsgBuffer message) override {
    MutexLock lock(mu);
    got.push_back(message.Copy());
  }
  size_t count() {
    MutexLock lock(mu);
    return got.size();
  }
};

Bytes Payload(int i) {
  std::string s = "datagram-" + std::to_string(i);
  return ToBytes(s);
}

// One seeded single-threaded send schedule; returns the injected-fault log.
std::vector<FaultEvent> RunFaultSchedule(uint64_t seed, size_t* delivered) {
  CollectorSink a;
  CollectorSink b;
  FaultTransport transport(std::make_unique<InProcTransport>(), seed);
  transport.Register(1, &a);
  transport.Register(2, &b);

  FaultSpec spec;
  spec.drop = 0.3;
  spec.corrupt = 0.2;
  spec.duplicate = 0.2;
  spec.reorder = 0.1;
  spec.delay = 200 * kMicrosecond;
  spec.delay_jitter = 300 * kMicrosecond;
  spec.reorder_window = 1 * kMillisecond;
  transport.SetLinkFaults(1, 2, spec);

  for (int i = 0; i < 300; ++i) {
    transport.Send(1, 2, MsgBuffer(Payload(i)));
  }

  // Everything not dropped arrives once (twice when duplicated) — the held-back ones within
  // a couple of reorder windows. Spin until the count stops moving.
  std::vector<FaultEvent> log = transport.FaultLog();
  size_t drops = 0;
  size_t dups = 0;
  for (const FaultEvent& e : log) {
    drops += e.kind == FaultKind::kDrop ? 1 : 0;
    dups += e.kind == FaultKind::kDuplicate ? 1 : 0;
  }
  size_t expect = 300 - drops + dups;
  for (int spins = 0; b.count() < expect && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(b.count(), expect);
  EXPECT_EQ(a.count(), 0u);  // no reverse traffic, no cross-talk
  if (delivered != nullptr) {
    *delivered = b.count();
  }
  transport.Unregister(1);
  transport.Unregister(2);
  return log;
}

TEST(FaultTransportTest, SameSeedSameInjectedFaultLog) {
  size_t delivered1 = 0;
  size_t delivered2 = 0;
  std::vector<FaultEvent> log1 = RunFaultSchedule(7777, &delivered1);
  std::vector<FaultEvent> log2 = RunFaultSchedule(7777, &delivered2);
  ASSERT_FALSE(log1.empty()) << "schedule with these rates cannot be fault-free";
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(delivered1, delivered2);
}

TEST(FaultTransportTest, PartitionCutsBothDirectionsUntilHealed) {
  CollectorSink a;
  CollectorSink b;
  FaultTransport transport(std::make_unique<InProcTransport>(), 1);
  transport.Register(1, &a);
  transport.Register(2, &b);

  transport.Partition({1});
  transport.Send(1, 2, MsgBuffer(Payload(0)));
  transport.Send(2, 1, MsgBuffer(Payload(1)));
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(b.count(), 0u);
  std::vector<FaultEvent> log = transport.FaultLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, FaultKind::kPartition);
  EXPECT_EQ(log[1].kind, FaultKind::kPartition);

  transport.Heal();
  transport.Send(1, 2, MsgBuffer(Payload(2)));
  transport.Send(2, 1, MsgBuffer(Payload(3)));
  // InProcTransport delivers synchronously on the sending thread.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.count(), 1u);

  transport.Unregister(1);
  transport.Unregister(2);
}

TEST(FaultTransportTest, TotalDropDeliversNothing) {
  CollectorSink b;
  FaultTransport transport(std::make_unique<InProcTransport>(), 1);
  transport.Register(2, &b);
  FaultSpec spec;
  spec.drop = 1.0;
  transport.SetDefaultFaults(spec);
  for (int i = 0; i < 50; ++i) {
    transport.Send(1, 2, MsgBuffer(Payload(i)));
  }
  EXPECT_EQ(b.count(), 0u);
  transport.ClearFaults();
  transport.Send(1, 2, MsgBuffer(Payload(50)));
  EXPECT_EQ(b.count(), 1u);
  transport.Unregister(2);
}

// ---- Live-runtime failure paths ----------------------------------------------------------

TEST(RtFaultTest, PrimaryCrashTriggersRealClockViewChange) {
  RtClusterOptions options;
  options.config.n = 4;
  options.config.state_pages = 64;
  // A second of view-change timeout with a 50 ms client retry base: the client visibly
  // re-probes several times (counted as view probes) before the new view forms.
  options.config.view_change_timeout = 1 * kSecond;
  options.config.max_view_change_timeout = 30 * kSecond;
  options.seed = 81;
  options.transport = RtClusterOptions::TransportKind::kInProc;
  RtCluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();
  ClientConfig cc;
  cc.retry_timeout = 50 * kMillisecond;
  cc.max_retry_timeout = 1 * kSecond;
  cc.retry_jitter = 1 * kMillisecond;
  client->set_client_config(cc);
  cluster.Start();

  for (int i = 0; i < 3; ++i) {
    std::optional<Bytes> put = cluster.Execute(
        client, KvService::PutOp(ToBytes("warm-" + std::to_string(i)), ToBytes("v")),
        /*read_only=*/false, 30 * kSecond);
    ASSERT_TRUE(put.has_value());
  }

  cluster.CrashReplica(0);  // the view-0 primary
  EXPECT_FALSE(cluster.replica_running(0));

  // Every op must still certify: the client's broadcast retransmissions make the backups
  // relay to the (dead) primary, their timers expire, and replica 1 becomes primary.
  for (int i = 0; i < 5; ++i) {
    std::optional<Bytes> put = cluster.Execute(
        client, KvService::PutOp(ToBytes("post-" + std::to_string(i)), ToBytes("v")),
        /*read_only=*/false, 60 * kSecond);
    ASSERT_TRUE(put.has_value()) << "op " << i << " after primary crash";
    EXPECT_EQ(ToString(*put), "ok");
  }

  View view = 0;
  Replica* r1 = cluster.replica(1);
  cluster.RunOn(1, [&view, r1]() { view = r1->view(); });
  EXPECT_GE(view, 1u) << "surviving replicas must have left the dead primary's view";
  EXPECT_GE(client->stats().retransmissions, 1u);
  EXPECT_GE(client->stats().view_probes, 1u);
  cluster.Stop();
}

TEST(RtFaultTest, RestartedReplicaRejoinsViaStateTransfer) {
  RtClusterOptions options;
  options.config.n = 4;
  options.config.state_pages = 64;
  options.config.checkpoint_period = 8;
  // Generous fault timers: this test is about rejoin, not view changes, and a spurious
  // view change on a loaded CI machine would only add noise.
  options.config.view_change_timeout = 10 * kSecond;
  options.config.max_view_change_timeout = 60 * kSecond;
  options.seed = 82;
  options.transport = RtClusterOptions::TransportKind::kInProc;
  RtCluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Client* client = cluster.AddClient();
  cluster.Start();

  auto put = [&](int i) {
    std::optional<Bytes> r = cluster.Execute(
        client, KvService::PutOp(ToBytes("key-" + std::to_string(i % 16)),
                                 ToBytes("value-" + std::to_string(i))),
        /*read_only=*/false, 30 * kSecond);
    ASSERT_TRUE(r.has_value()) << "PUT " << i;
    EXPECT_EQ(ToString(*r), "ok");
  };

  for (int i = 0; i < 4; ++i) {
    put(i);
  }

  // The /healthz surface over the live cluster: collected via RunOn on each replica's loop,
  // served by the AdminServer's accept thread — the exact bft_node --admin-port wiring.
  MetricsRegistry admin_metrics;
  AdminServer admin(&admin_metrics, nullptr);
  admin.SetHealthSource([&cluster]() { return cluster.Health(); });
  ASSERT_TRUE(admin.Listen(0));
  std::string body = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(body.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos) << body;

  cluster.CrashReplica(3);
  // Mid-outage the endpoint must report the degradation and name the down replica.
  body = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(body.find("\"status\": \"degraded\""), std::string::npos) << body;
  EXPECT_NE(body.find("down"), std::string::npos) << body;
  EXPECT_NE(body.find("\"running\": false"), std::string::npos) << body;
  // 40 more ops with one replica down: f=1 tolerance keeps the group live, and the stable
  // checkpoint advances far past the dead replica's log (seq 44 >> log_size 16), so a bare
  // retransmission can never catch it up — only state transfer can.
  for (int i = 4; i < 44; ++i) {
    put(i);
  }

  cluster.RestartReplica(3);
  ASSERT_TRUE(cluster.replica_running(3));

  // The restarted replica comes back at view 0 with empty state; the status exchange gets it
  // the group's checkpoint certificate and state transfer fetches the pages.
  SeqNo caught_up = 0;
  uint64_t transfers = 0;
  uint64_t pages = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    Replica* r3 = cluster.replica(3);
    cluster.RunOn(3, [&, r3]() {
      caught_up = r3->last_executed();
      transfers = r3->stats().state_transfers;
      pages = r3->stats().pages_fetched;
    });
    if (caught_up >= 40) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(caught_up, 40u) << "restarted replica never caught up to the stable checkpoint";
  EXPECT_GE(transfers, 1u) << "rejoin must have gone through state transfer";
  EXPECT_GT(pages, 0u);

  // And it keeps participating: after a few more certified ops it tracks the head of the
  // sequence, not just the fetched checkpoint.
  for (int i = 44; i < 47; ++i) {
    put(i);
  }
  // Both the rejoined replica and an always-live one must reach the head (the last commit
  // deliveries race the client's certificate, so poll rather than assert instantly).
  SeqNo head3 = 0;
  SeqNo head1 = 0;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    Replica* r3 = cluster.replica(3);
    cluster.RunOn(3, [&head3, r3]() { head3 = r3->last_executed(); });
    Replica* r1_live = cluster.replica(1);
    cluster.RunOn(1, [&head1, r1_live]() { head1 = r1_live->last_executed(); });
    if (head3 >= 47 && head1 >= 47) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(head3, 47u) << "rejoined replica stopped executing after state transfer";
  EXPECT_GE(head1, 47u);

  // Recovery is visible on /healthz too: once the rejoined replica is back in the active
  // view with state transfer finished, the verdict returns to ok. Poll — the final
  // transfer bookkeeping races the head check above.
  bool healthy = false;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    body = HttpGet(admin.port(), "/healthz");
    if (body.find("\"status\": \"ok\"") != std::string::npos) {
      healthy = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(healthy) << "cluster never returned to ok after rejoin: " << body;

  admin.Stop();
  cluster.Stop();
  // Loops joined: compare the rejoined replica's state bytes against a replica that never
  // crashed, at identical last_executed — divergence here is a safety violation.
  Replica* r3 = cluster.replica(3);
  Replica* r1 = cluster.replica(1);
  ASSERT_EQ(r3->last_executed(), r1->last_executed());
  EXPECT_EQ(Bytes(r3->state().data(), r3->state().data() + r3->state().size_bytes()),
            Bytes(r1->state().data(), r1->state().data() + r1->state().size_bytes()));
}

}  // namespace
}  // namespace bft
