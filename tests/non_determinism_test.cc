// Non-determinism agreement tests (thesis Section 5.4): the primary proposes the value,
// backups check it deterministically, and a primary proposing bad values is replaced.
#include <gtest/gtest.h>

#include "src/bfs/bfs_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

ClusterOptions Options(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.config.state_pages = 64;
  options.config.page_size = 1024;
  options.config.checkpoint_period = 8;
  options.config.partition_branching = 8;
  return options;
}

// A Byzantine service wrapper whose ChooseNonDet proposes a wildly wrong timestamp when this
// replica is primary. Backups' CheckNonDet must reject it, stalling the primary until the
// view change replaces it.
class BadClockBfs : public BfsService {
 public:
  Bytes ChooseNonDet(SeqNo seq, SimTime now) override {
    Writer w;
    w.U64(now + 3600ull * kSecond);  // one hour in the future: outside the check window
    return w.Take();
  }
};

TEST(NonDeterminismTest, AgreedMtimeIsIdenticalAcrossReplicas) {
  Cluster cluster(Options(91), [](NodeId) { return std::make_unique<BfsService>(); });
  Client* client = cluster.AddClient();
  auto attr = BfsService::DecodeAttr(
      cluster.Execute(client, BfsService::CreateOp(BfsService::kRootIno, "f"), false,
                      60 * kSecond)
          .value_or(Bytes{}));
  ASSERT_TRUE(attr.has_value());
  cluster.sim().RunFor(kSecond);

  // Ask each replica directly (read-only executes locally): mtimes must be identical even
  // though each replica has its own notion of time.
  for (int r = 0; r < 4; ++r) {
    // Compare the raw inode area across replicas instead of querying: simplest exactness.
    Bytes a(cluster.replica(0)->state().data(), cluster.replica(0)->state().data() + 4096);
    Bytes b(cluster.replica(r)->state().data(), cluster.replica(r)->state().data() + 4096);
    EXPECT_EQ(a, b) << "replica " << r << " disagrees on non-deterministic state";
  }
  EXPECT_GT(attr->mtime, 0u);
}

TEST(NonDeterminismTest, PrimaryProposingBadValuesIsReplaced) {
  // Replica 0 (primary of view 0) proposes timestamps an hour in the future; backups'
  // CheckNonDet rejects its pre-prepares, its requests never execute, and the view change
  // installs a correct primary (Section 5.4: "a primary that proposes bad values is replaced
  // as usual by the view change mechanism").
  Cluster cluster(Options(92), [](NodeId replica) -> std::unique_ptr<Service> {
    if (replica == 0) {
      return std::make_unique<BadClockBfs>();
    }
    return std::make_unique<BfsService>();
  });
  Client* client = cluster.AddClient();
  std::optional<Bytes> result = cluster.Execute(
      client, BfsService::CreateOp(BfsService::kRootIno, "f"), false, 120 * kSecond);
  ASSERT_TRUE(result.has_value()) << "view change failed to route around the bad primary";
  auto attr = BfsService::DecodeAttr(*result);
  ASSERT_TRUE(attr.has_value());
  EXPECT_GE(cluster.replica(1)->view(), 1u) << "no view change happened";
}

TEST(NonDeterminismTest, BackupWithBadCheckStillConverges) {
  // Dual case: one *backup* would propose bad values, but backups never propose; the group
  // behaves normally and the deviant replica executes the agreed value like everyone else.
  Cluster cluster(Options(93), [](NodeId replica) -> std::unique_ptr<Service> {
    if (replica == 2) {
      return std::make_unique<BadClockBfs>();
    }
    return std::make_unique<BfsService>();
  });
  Client* client = cluster.AddClient();
  auto result = cluster.Execute(client, BfsService::CreateOp(BfsService::kRootIno, "g"),
                                false, 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  cluster.sim().RunFor(kSecond);
  Bytes a(cluster.replica(0)->state().data(), cluster.replica(0)->state().data() + 4096);
  Bytes b(cluster.replica(2)->state().data(), cluster.replica(2)->state().data() + 4096);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bft
