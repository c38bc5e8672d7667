// BFS tests: file-system semantics against a bare service instance, plus replicated
// integration through the BFT library.
#include <gtest/gtest.h>

#include "src/bfs/bfs_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

// --- Bare-service harness -------------------------------------------------------------------

struct BareBfs {
  BareBfs() {
    config.state_pages = 256;
    config.page_size = 1024;
    config.partition_branching = 16;
    state = std::make_unique<ReplicaState>(&config, &model);
    fs.Initialize(state.get());
    state->Baseline({});
  }

  Bytes Run(Bytes op, uint64_t mtime = 1) {
    Writer nd;
    nd.U64(mtime);
    return fs.Execute(kClientIdBase, op, nd.data(), fs.IsReadOnly(op));
  }

  uint32_t MustCreate(uint32_t dir, std::string_view name) {
    auto attr = BfsService::DecodeAttr(Run(BfsService::CreateOp(dir, name)));
    EXPECT_TRUE(attr.has_value());
    return attr->ino;
  }
  uint32_t MustMkdir(uint32_t dir, std::string_view name) {
    auto attr = BfsService::DecodeAttr(Run(BfsService::MkdirOp(dir, name)));
    EXPECT_TRUE(attr.has_value());
    return attr->ino;
  }

  ReplicaConfig config;
  PerfModel model;
  std::unique_ptr<ReplicaState> state;
  BfsService fs;
};

TEST(BfsTest, CreateLookupGetattr) {
  BareBfs fs;
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "file.txt");
  EXPECT_NE(ino, BfsService::kRootIno);

  auto attr = BfsService::DecodeAttr(fs.Run(BfsService::LookupOp(BfsService::kRootIno,
                                                                 "file.txt")));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->ino, ino);
  EXPECT_EQ(attr->type, 1);
  EXPECT_EQ(attr->size, 0u);

  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::LookupOp(BfsService::kRootIno, "nope"))),
            BfsStatus::kNoEnt);
}

TEST(BfsTest, DuplicateCreateFails) {
  BareBfs fs;
  fs.MustCreate(BfsService::kRootIno, "f");
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::CreateOp(BfsService::kRootIno, "f"))),
            BfsStatus::kExist);
}

TEST(BfsTest, WriteReadRoundTrip) {
  BareBfs fs;
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "data");
  Bytes payload = ToBytes("The quick brown fox jumps over the lazy dog");
  auto attr = BfsService::DecodeAttr(fs.Run(BfsService::WriteOp(ino, 0, payload)));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->size, payload.size());

  Bytes back = BfsService::DecodeData(
      fs.Run(BfsService::ReadOp(ino, 0, static_cast<uint32_t>(payload.size()))));
  EXPECT_EQ(back, payload);
}

TEST(BfsTest, WriteAtOffsetAndAcrossBlocks) {
  BareBfs fs;
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "big");
  // Write spanning three 1 KB blocks at a non-aligned offset.
  Rng rng(17);
  Bytes payload = rng.RandomBytes(3000);
  ASSERT_TRUE(BfsService::DecodeAttr(fs.Run(BfsService::WriteOp(ino, 500, payload))));
  Bytes back = BfsService::DecodeData(fs.Run(BfsService::ReadOp(ino, 500, 3000)));
  EXPECT_EQ(back, payload);
  // The hole before offset 500 reads as zeros.
  Bytes hole = BfsService::DecodeData(fs.Run(BfsService::ReadOp(ino, 0, 500)));
  EXPECT_EQ(hole, Bytes(500, 0));
}

TEST(BfsTest, MaxFileSizeEnforced) {
  BareBfs fs;
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "huge");
  Bytes chunk(100, 1);
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::WriteOp(
                ino, static_cast<uint32_t>(BfsService::kMaxFileSize) - 50, chunk))),
            BfsStatus::kFBig);
}

TEST(BfsTest, TruncateFreesBlocks) {
  BareBfs fs;
  uint32_t free_before = fs.fs.free_blocks();
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "t");
  Bytes payload(5000, 2);
  ASSERT_TRUE(BfsService::DecodeAttr(fs.Run(BfsService::WriteOp(ino, 0, payload))));
  EXPECT_LT(fs.fs.free_blocks(), free_before);
  ASSERT_TRUE(BfsService::DecodeAttr(fs.Run(BfsService::SetAttrOp(ino, 0))));
  // Root directory still holds one block; all file blocks must be back.
  EXPECT_EQ(fs.fs.free_blocks(), free_before - 1);
}

TEST(BfsTest, MkdirNestingAndReaddir) {
  BareBfs fs;
  uint32_t d1 = fs.MustMkdir(BfsService::kRootIno, "a");
  uint32_t d2 = fs.MustMkdir(d1, "b");
  fs.MustCreate(d2, "deep.txt");

  auto entries = BfsService::DecodeDir(fs.Run(BfsService::ReaddirOp(d2)));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "deep.txt");

  auto root_entries = BfsService::DecodeDir(fs.Run(BfsService::ReaddirOp(BfsService::kRootIno)));
  ASSERT_EQ(root_entries.size(), 1u);
  EXPECT_EQ(root_entries[0].second, d1);
}

TEST(BfsTest, RemoveAndRmdirSemantics) {
  BareBfs fs;
  uint32_t dir = fs.MustMkdir(BfsService::kRootIno, "d");
  fs.MustCreate(dir, "f");

  // rmdir on a non-empty directory fails.
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RmdirOp(BfsService::kRootIno, "d"))),
            BfsStatus::kNotEmpty);
  // remove on a directory fails.
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RemoveOp(BfsService::kRootIno, "d"))),
            BfsStatus::kIsDir);
  // Remove the file, then the directory.
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RemoveOp(dir, "f"))), BfsStatus::kOk);
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RmdirOp(BfsService::kRootIno, "d"))),
            BfsStatus::kOk);
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::LookupOp(BfsService::kRootIno, "d"))),
            BfsStatus::kNoEnt);
}

TEST(BfsTest, RemoveFreesInodeForReuse) {
  BareBfs fs;
  uint32_t ino1 = fs.MustCreate(BfsService::kRootIno, "x");
  ASSERT_EQ(BfsService::StatusOf(fs.Run(BfsService::RemoveOp(BfsService::kRootIno, "x"))),
            BfsStatus::kOk);
  uint32_t ino2 = fs.MustCreate(BfsService::kRootIno, "y");
  EXPECT_EQ(ino1, ino2);  // deterministic inode reuse (lowest free index)
}

TEST(BfsTest, RenameMovesBetweenDirectories) {
  BareBfs fs;
  uint32_t d1 = fs.MustMkdir(BfsService::kRootIno, "src");
  uint32_t d2 = fs.MustMkdir(BfsService::kRootIno, "dst");
  uint32_t ino = fs.MustCreate(d1, "f");
  ASSERT_TRUE(BfsService::DecodeAttr(fs.Run(BfsService::WriteOp(ino, 0, ToBytes("body")))));

  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RenameOp(d1, "f", d2, "g"))),
            BfsStatus::kOk);
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::LookupOp(d1, "f"))), BfsStatus::kNoEnt);
  auto attr = BfsService::DecodeAttr(fs.Run(BfsService::LookupOp(d2, "g")));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->ino, ino);
  EXPECT_EQ(BfsService::DecodeData(fs.Run(BfsService::ReadOp(ino, 0, 4))), ToBytes("body"));
}

TEST(BfsTest, RenameWithinSameDirectory) {
  BareBfs fs;
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "old");
  EXPECT_EQ(BfsService::StatusOf(fs.Run(
                BfsService::RenameOp(BfsService::kRootIno, "old", BfsService::kRootIno,
                                     "new"))),
            BfsStatus::kOk);
  auto attr = BfsService::DecodeAttr(fs.Run(BfsService::LookupOp(BfsService::kRootIno, "new")));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->ino, ino);
}

TEST(BfsTest, HardLinksShareDataAndCountNames) {
  BareBfs fs;
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "orig");
  ASSERT_TRUE(BfsService::DecodeAttr(fs.Run(BfsService::WriteOp(ino, 0, ToBytes("shared")))));

  auto linked = BfsService::DecodeAttr(
      fs.Run(BfsService::LinkOp(ino, BfsService::kRootIno, "alias")));
  ASSERT_TRUE(linked.has_value());
  EXPECT_EQ(linked->ino, ino);
  EXPECT_EQ(linked->nlink, 2);

  // Data visible through both names; removing one name keeps the file alive.
  auto via_alias = BfsService::DecodeAttr(fs.Run(BfsService::LookupOp(BfsService::kRootIno,
                                                                      "alias")));
  ASSERT_TRUE(via_alias.has_value());
  EXPECT_EQ(via_alias->ino, ino);
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RemoveOp(BfsService::kRootIno, "orig"))),
            BfsStatus::kOk);
  EXPECT_EQ(BfsService::DecodeData(fs.Run(BfsService::ReadOp(ino, 0, 6))), ToBytes("shared"));
  auto attr = BfsService::DecodeAttr(fs.Run(BfsService::GetAttrOp(ino)));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->nlink, 1);

  // Removing the last name frees the inode.
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::RemoveOp(BfsService::kRootIno, "alias"))),
            BfsStatus::kOk);
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::GetAttrOp(ino))), BfsStatus::kNoEnt);
}

TEST(BfsTest, LinkToDirectoryRejected) {
  BareBfs fs;
  uint32_t dir = fs.MustMkdir(BfsService::kRootIno, "d");
  EXPECT_EQ(BfsService::StatusOf(
                fs.Run(BfsService::LinkOp(dir, BfsService::kRootIno, "dlink"))),
            BfsStatus::kIsDir);
}

TEST(BfsTest, SymlinkRoundTrip) {
  BareBfs fs;
  auto link = BfsService::DecodeAttr(
      fs.Run(BfsService::SymlinkOp(BfsService::kRootIno, "ln", "/some/target/path")));
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(link->type, 3);

  Bytes target = BfsService::DecodeData(fs.Run(BfsService::ReadlinkOp(link->ino)));
  EXPECT_EQ(ToString(target), "/some/target/path");

  // readlink on a regular file is invalid.
  uint32_t file = fs.MustCreate(BfsService::kRootIno, "plain");
  EXPECT_EQ(BfsService::StatusOf(fs.Run(BfsService::ReadlinkOp(file))), BfsStatus::kInval);
}

TEST(BfsTest, StatFsTracksAllocation) {
  BareBfs fs;
  auto before = BfsService::DecodeStatFs(fs.Run(BfsService::StatFsOp()));
  ASSERT_TRUE(before.has_value());
  uint32_t ino = fs.MustCreate(BfsService::kRootIno, "f");
  ASSERT_TRUE(BfsService::DecodeAttr(fs.Run(BfsService::WriteOp(ino, 0, Bytes(3000, 1)))));
  auto after = BfsService::DecodeStatFs(fs.Run(BfsService::StatFsOp()));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->total_blocks, before->total_blocks);
  EXPECT_LT(after->free_blocks, before->free_blocks);
  EXPECT_EQ(after->free_inodes + 1, before->free_inodes);
}

TEST(BfsTest, MtimeComesFromAgreedNonDeterminism) {
  BareBfs fs;
  auto attr = BfsService::DecodeAttr(
      fs.Run(BfsService::CreateOp(BfsService::kRootIno, "stamped"), /*mtime=*/777));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->mtime, 777u);
}

TEST(BfsTest, ReadOnlyClassification) {
  BfsService fs;
  EXPECT_TRUE(fs.IsReadOnly(BfsService::LookupOp(0, "x")));
  EXPECT_TRUE(fs.IsReadOnly(BfsService::GetAttrOp(0)));
  EXPECT_TRUE(fs.IsReadOnly(BfsService::ReadOp(0, 0, 10)));
  EXPECT_TRUE(fs.IsReadOnly(BfsService::ReaddirOp(0)));
  EXPECT_FALSE(fs.IsReadOnly(BfsService::WriteOp(0, 0, ToBytes("w"))));
  EXPECT_FALSE(fs.IsReadOnly(BfsService::CreateOp(0, "c")));
  EXPECT_FALSE(fs.IsReadOnly(BfsService::RenameOp(0, "a", 0, "b")));
}

TEST(BfsTest, DeterministicAcrossInstances) {
  // Two service instances applying the same op sequence produce identical state pages —
  // the fundamental state-machine-replication requirement.
  BareBfs a;
  BareBfs b;
  std::vector<Bytes> ops;
  ops.push_back(BfsService::MkdirOp(BfsService::kRootIno, "dir"));
  ops.push_back(BfsService::CreateOp(1, "f1"));
  ops.push_back(BfsService::WriteOp(2, 0, ToBytes("payload-one")));
  ops.push_back(BfsService::CreateOp(1, "f2"));
  ops.push_back(BfsService::WriteOp(3, 100, ToBytes("payload-two")));
  ops.push_back(BfsService::RemoveOp(1, "f1"));
  uint64_t mtime = 10;
  for (const Bytes& op : ops) {
    Bytes ra = a.Run(op, mtime);
    Bytes rb = b.Run(op, mtime);
    EXPECT_EQ(ra, rb);
    ++mtime;
  }
  EXPECT_EQ(Bytes(a.state->data(), a.state->data() + a.state->size_bytes()),
            Bytes(b.state->data(), b.state->data() + b.state->size_bytes()));
}

// --- Replicated integration ---------------------------------------------------------------------

TEST(BfsReplicatedTest, EndToEndFileWorkflow) {
  ClusterOptions options;
  options.seed = 51;
  options.config.state_pages = 64;
  options.config.page_size = 1024;
  options.config.checkpoint_period = 8;
  options.config.partition_branching = 8;
  Cluster cluster(options, [](NodeId) { return std::make_unique<BfsService>(); });
  Client* client = cluster.AddClient();

  auto run = [&](Bytes op, bool ro = false) {
    auto result = cluster.Execute(client, std::move(op), ro, 60 * kSecond);
    EXPECT_TRUE(result.has_value());
    return result.value_or(Bytes{});
  };

  auto dir = BfsService::DecodeAttr(run(BfsService::MkdirOp(BfsService::kRootIno, "project")));
  ASSERT_TRUE(dir.has_value());
  auto file = BfsService::DecodeAttr(run(BfsService::CreateOp(dir->ino, "notes.txt")));
  ASSERT_TRUE(file.has_value());
  Bytes body = ToBytes("replicated file contents");
  ASSERT_TRUE(BfsService::DecodeAttr(run(BfsService::WriteOp(file->ino, 0, body))));

  Bytes back = BfsService::DecodeData(
      run(BfsService::ReadOp(file->ino, 0, static_cast<uint32_t>(body.size())), true));
  EXPECT_EQ(back, body);

  // All replicas hold identical file-system state.
  cluster.sim().RunFor(2 * kSecond);
  Bytes ref(cluster.replica(0)->state().data(),
            cluster.replica(0)->state().data() + cluster.replica(0)->state().size_bytes());
  for (int r = 1; r < 4; ++r) {
    Bytes other(cluster.replica(r)->state().data(),
                cluster.replica(r)->state().data() + cluster.replica(r)->state().size_bytes());
    EXPECT_EQ(ref, other) << "replica " << r << " diverged";
  }
}

TEST(BfsReplicatedTest, SurvivesPrimaryFailureMidWorkload) {
  ClusterOptions options;
  options.seed = 52;
  options.config.state_pages = 64;
  options.config.page_size = 1024;
  options.config.checkpoint_period = 8;
  options.config.partition_branching = 8;
  Cluster cluster(options, [](NodeId) { return std::make_unique<BfsService>(); });
  Client* client = cluster.AddClient();

  auto file = BfsService::DecodeAttr(
      cluster.Execute(client, BfsService::CreateOp(BfsService::kRootIno, "f"), false,
                      60 * kSecond)
          .value_or(Bytes{}));
  ASSERT_TRUE(file.has_value());
  ASSERT_TRUE(cluster.Execute(client, BfsService::WriteOp(file->ino, 0, ToBytes("before")),
                              false, 60 * kSecond));

  cluster.replica(0)->Crash();
  ASSERT_TRUE(cluster.Execute(client, BfsService::WriteOp(file->ino, 6, ToBytes(" after")),
                              false, 120 * kSecond));
  Bytes back = BfsService::DecodeData(
      cluster.Execute(client, BfsService::ReadOp(file->ino, 0, 12), false, 120 * kSecond)
          .value_or(Bytes{}));
  EXPECT_EQ(ToString(back), "before after");
}

}  // namespace
}  // namespace bft
