// Denial-of-service defenses (thesis Section 5.5): replay caches, request scheduling
// fairness, bounded per-sequence-number log state, and bounded unauthenticated view-change
// state.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/service/counter_service.h"
#include "src/workload/cluster.h"

namespace {
// Bytes currently held through operator new: what the process retains, allocations minus
// frees.
std::atomic<int64_t> g_live_bytes{0};
}  // namespace

void* operator new(size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  return p;
}
// Out of line: inlined into a new-expression, GCC flags the malloc/free pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { operator delete(p); }

namespace bft {
namespace {

ClusterOptions Options(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.config.checkpoint_period = 16;
  options.config.log_size = 32;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  return options;
}

ServiceFactory CounterFactory() {
  return [](NodeId) { return std::make_unique<CounterService>(); };
}

TEST(DosTest, ReplayedOldRequestsAnsweredFromCacheNotReExecuted) {
  Cluster cluster(Options(81), CounterFactory());
  Client* client = cluster.AddClient();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  }
  uint64_t executed_before = cluster.replica(0)->stats().requests_executed;

  // An attacker replays the client's old (authentic!) request traffic at the replicas.
  // The replicas answer with the cached reply for the latest timestamp and drop the rest —
  // the counter must not advance.
  RequestMsg replay;  // reconstruct an old-looking request is not possible without keys, so
  (void)replay;       // replay real wire bytes instead via a capture filter:
  std::vector<Bytes> captured;
  cluster.net().SetFilter([&captured](NodeId src, NodeId dst, const Bytes& msg) {
    if (IsClientId(src)) {
      captured.push_back(msg);
    }
    return Network::FilterAction::kDeliver;
  });
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  cluster.net().SetFilter(nullptr);
  ASSERT_FALSE(captured.empty());
  for (int round = 0; round < 5; ++round) {
    for (const Bytes& wire : captured) {
      for (NodeId r = 0; r < 4; ++r) {
        cluster.net().Send(9999, r, wire, cluster.sim().Now());
      }
    }
  }
  cluster.sim().RunFor(2 * kSecond);
  EXPECT_EQ(cluster.replica(0)->stats().requests_executed, executed_before + 1)
      << "replays were re-executed";

  uint64_t value = 0;
  cluster.replica(0)->state().Read(0, sizeof(value), reinterpret_cast<uint8_t*>(&value));
  EXPECT_EQ(value, 4u);
}

TEST(DosTest, SpammingClientDoesNotStarveOthers) {
  // Client A floods retransmissions of one request; client B issues ordinary traffic. The
  // FIFO scheduling rule (one queued request per client, highest timestamp) must keep B's
  // latency in the normal range.
  Cluster cluster(Options(82), CounterFactory());
  Client* spammer = cluster.AddClient();
  Client* normal = cluster.AddClient();

  // Baseline latency for B alone.
  ASSERT_TRUE(cluster.Execute(normal, CounterService::IncOp()).has_value());
  SimTime baseline = normal->stats().last_latency;

  // A issues a request and we replay its wire bytes aggressively.
  std::vector<Bytes> captured;
  cluster.net().SetFilter([&captured, spammer](NodeId src, NodeId dst, const Bytes& msg) {
    if (src == spammer->id()) {
      captured.push_back(msg);
    }
    return Network::FilterAction::kDeliver;
  });
  ASSERT_TRUE(cluster.Execute(spammer, CounterService::IncOp()).has_value());
  cluster.net().SetFilter(nullptr);
  Cluster* cptr = &cluster;
  for (int burst = 0; burst < 200; ++burst) {
    cluster.sim().Schedule(burst * kMillisecond, [cptr, &captured]() {
      for (const Bytes& wire : captured) {
        for (NodeId r = 0; r < 4; ++r) {
          cptr->net().Send(9999, r, wire, cptr->sim().Now());
        }
      }
    });
  }

  // B's ops complete in bounded time under the flood.
  for (int i = 0; i < 5; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(normal, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_LT(normal->stats().last_latency, 50 * baseline)
        << "spammer starved the normal client";
  }
}

TEST(DosTest, LogStateBoundedPerSequenceNumber) {
  // A Byzantine replica sending many conflicting prepares for the same (view, seq) must not
  // grow a log entry without bound: one prepare per replica is retained.
  Cluster cluster(Options(83), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  // (Structural property: LogEntry::prepares is keyed by replica id, so the bound holds by
  // construction; this test documents it by hammering duplicates through the wire.)
  std::vector<Bytes> captured;
  cluster.net().SetFilter([&captured](NodeId src, NodeId dst, const Bytes& msg) {
    if (src == 2 && dst == 0) {
      captured.push_back(msg);
    }
    return Network::FilterAction::kDeliver;
  });
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());
  cluster.net().SetFilter(nullptr);
  for (int i = 0; i < 100; ++i) {
    for (const Bytes& wire : captured) {
      cluster.net().Send(9999, 0, wire, cluster.sim().Now());
    }
  }
  cluster.sim().RunFor(kSecond);
  // The group still functions normally afterwards.
  std::optional<Bytes> result = cluster.Execute(client, CounterService::IncOp());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 3u);
}

TEST(DosTest, GarbageFloodDoesNotCrashOrStall) {
  Cluster cluster(Options(84), CounterFactory());
  Client* client = cluster.AddClient();
  Rng rng(84);
  for (int i = 0; i < 500; ++i) {
    Bytes junk = rng.RandomBytes(rng.Below(200));
    cluster.net().Send(9999, static_cast<NodeId>(rng.Below(4)), junk, cluster.sim().Now());
  }
  for (uint64_t i = 1; i <= 5; ++i) {
    std::optional<Bytes> result =
        cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
}

TEST(DosTest, ForgedViewChangesRetainBoundedState) {
  // Anyone who can send a datagram can forge a VIEW-CHANGE: a bad MAC costs nothing to make.
  // A replica keeps unverified view-changes (f+1 acks may still vouch for one), so forgeries
  // naming a new view each must not each be kept: at most one per sender survives.
  Cluster cluster(Options(85), CounterFactory());
  Client* client = cluster.AddClient();
  ASSERT_TRUE(cluster.Execute(client, CounterService::IncOp()).has_value());

  Replica* target = cluster.replica(0);
  int64_t live_before = g_live_bytes.load();
  size_t wire_size = 0;
  for (View v = 1; v <= 2000; ++v) {
    ViewChangeMsg vc;
    vc.view = v;
    vc.replica = 2;
    for (SeqNo seq = 1; seq <= 32; ++seq) {
      vc.p.push_back({seq, Digest{}, 0});  // prepared in view 0 < v: passes the P-set check
    }
    vc.auth = Bytes(32, 0x5a);  // not a valid authenticator
    Bytes wire = EncodeTyped(vc);
    wire_size = wire.size();
    target->OnMessage(MsgBuffer(std::move(wire)));
  }
  int64_t retained = g_live_bytes.load() - live_before;
  ASSERT_GE(wire_size, 1000u);
  EXPECT_LT(retained, 64 * 1024) << "forged view-changes retained " << retained << " bytes";

  // The group still commits, and replica 0 completes a real view change: with its sends
  // muted the backups replace it as primary, and it follows them into the new view.
  target->SetMute(true);
  std::optional<Bytes> result =
      cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*result), 2u);
  target->SetMute(false);
  for (uint64_t i = 3; i <= 5; ++i) {
    result = cluster.Execute(client, CounterService::IncOp(), false, 60 * kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(CounterService::DecodeValue(*result), i);
  }
  EXPECT_TRUE(cluster.WaitForExecution(cluster.replica(1)->last_executed()));
  EXPECT_GE(target->view(), 1u);
  EXPECT_TRUE(target->Health().view_active);
}

}  // namespace
}  // namespace bft
