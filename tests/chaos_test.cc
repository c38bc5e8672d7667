// Randomized fault-schedule ("chaos") property tests.
//
// Each run drives concurrent clients against a replicated KV store while a scheduler injects
// a rotating sequence of faults — one at a time, respecting f=1: Byzantine-silent replicas,
// primary isolation, network-wide loss, short partitions. After healing, the suite checks the
// algorithm's core properties:
//   safety      — all live replicas converge to bit-identical state
//   exactly-once — each client's counter equals the number of operations it completed
//   liveness    — the run makes progress (a minimum number of operations completes)
// Every run is deterministic in its seed, so failures replay exactly.
#include <gtest/gtest.h>

#include "src/service/kv_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, ConvergenceAndExactlyOnceUnderRandomFaults) {
  uint64_t seed = GetParam();
  ClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.checkpoint_period = 16;
  options.config.state_pages = 64;
  options.config.partition_branching = 8;
  Cluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  Rng rng(seed * 7919);

  // Three paced clients (one op per ~5 ms), each maintaining a per-client counter key.
  constexpr size_t kClients = 3;
  std::vector<Client*> clients;
  std::vector<uint64_t> completed(kClients, 0);
  bool stop_pumping = false;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(cluster.AddClient());
  }
  std::function<void(size_t)> pump = [&](size_t c) {
    if (stop_pumping) {
      return;
    }
    uint64_t next = completed[c] + 1;
    Bytes value = ToBytes(std::to_string(next));
    clients[c]->Invoke(KvService::PutOp(ToBytes("ctr" + std::to_string(c)), value), false,
                       [&, c](Bytes) {
                         ++completed[c];
                         cluster.sim().Schedule(5 * kMillisecond, [&pump, c]() { pump(c); });
                       });
  };
  for (size_t c = 0; c < kClients; ++c) {
    cluster.sim().Schedule(c * kMillisecond, [&pump, c]() { pump(c); });
  }

  // Fault scheduler: one fault active at a time, 1 s on, 1 s healthy.
  int muted = -1;
  for (int round = 0; round < 6; ++round) {
    cluster.sim().RunFor(kSecond);
    switch (rng.Below(4)) {
      case 0: {  // Byzantine-silent replica
        muted = static_cast<int>(rng.Below(4));
        cluster.replica(muted)->SetMute(true);
        break;
      }
      case 1: {  // isolate one replica
        cluster.net().Partition({static_cast<NodeId>(rng.Below(4))});
        break;
      }
      case 2: {  // lossy network (benign, affects everyone)
        cluster.net().SetDropProbability(0.08);
        break;
      }
      case 3: {  // crash-like outage of one replica, then reconnect
        cluster.net().SetNodeDown(static_cast<NodeId>(rng.Below(4)), true);
        break;
      }
    }
    cluster.sim().RunFor(kSecond);
    // Heal everything.
    if (muted >= 0) {
      cluster.replica(muted)->SetMute(false);
      muted = -1;
    }
    cluster.net().HealPartition();
    cluster.net().SetDropProbability(0.0);
    for (NodeId r = 0; r < 4; ++r) {
      cluster.net().SetNodeDown(r, false);
    }
  }

  // Quiesce: stop the load, let in-flight ops finish and the group converge.
  stop_pumping = true;
  cluster.sim().RunFor(10 * kSecond);
  uint64_t total = completed[0] + completed[1] + completed[2];
  EXPECT_GT(total, 50u) << "liveness: almost nothing committed under chaos";

  // Let every replica reach the same execution point (status retransmission / transfer).
  SeqNo max_exec = 0;
  for (int r = 0; r < 4; ++r) {
    max_exec = std::max(max_exec, cluster.replica(r)->last_executed());
  }
  cluster.sim().RunUntilCondition(
      [&cluster, max_exec]() {
        for (int r = 0; r < 4; ++r) {
          if (cluster.replica(r)->last_executed() < max_exec) {
            return false;
          }
        }
        return true;
      },
      cluster.sim().Now() + 60 * kSecond);

  // Exactly-once: each per-client counter key holds the count of completed ops... or is at
  // most one ahead (the in-flight op may have committed without its reply certificate).
  Client* reader = cluster.AddClient();
  for (size_t c = 0; c < kClients; ++c) {
    std::optional<Bytes> r = cluster.Execute(
        reader, KvService::GetOp(ToBytes("ctr" + std::to_string(c))), false, 120 * kSecond);
    ASSERT_TRUE(r.has_value());
    uint64_t stored = r->empty() ? 0 : std::stoull(ToString(*r));
    EXPECT_GE(stored, completed[c]) << "client " << c << ": committed op lost";
    EXPECT_LE(stored, completed[c] + 1) << "client " << c << ": double execution";
  }

  // Safety: replicas that reached the same sequence number hold identical state bytes.
  std::map<SeqNo, Bytes> state_at;
  for (int r = 0; r < 4; ++r) {
    Replica* rep = cluster.replica(r);
    Bytes snapshot(rep->state().data(), rep->state().data() + rep->state().size_bytes());
    auto [it, inserted] = state_at.emplace(rep->last_executed(), std::move(snapshot));
    if (!inserted) {
      EXPECT_EQ(it->second,
                Bytes(rep->state().data(), rep->state().data() + rep->state().size_bytes()))
          << "replicas at seq " << rep->last_executed() << " diverged (seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace bft
