// VFS write surface: create -> write -> release maps onto the explicit
// write-session protocol (reserve, pace, commit-or-rollback).
#include <gtest/gtest.h>

#include "dfs/vfs_adapter.hpp"
#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

class VfsWriteTest : public ::testing::Test {
 protected:
  VfsWriteTest() : cluster_{sqos::testing::make_small_cluster()} {
    cluster_->start();
    cluster_->simulator().run();
    adapter_ = std::make_unique<VfsAdapter>(cluster_->client(0), cluster_->mm(),
                                            cluster_->directory(), cluster_->simulator());
    adapter_->attach_cluster(cluster_.get());
  }

  std::uint64_t create_file(const std::string& name, double mbps = 2.0, double seconds = 10.0) {
    std::uint64_t fd = 0;
    adapter_->create(name, Bandwidth::mbps(mbps), SimTime::seconds(seconds),
                     [&](Result<std::uint64_t> r) {
                       EXPECT_TRUE(r.is_ok()) << r.status().to_string();
                       fd = r.value_or(0);
                     });
    cluster_->simulator().run();
    return fd;
  }

  /// Pump write() until the descriptor reports 0 bytes accepted.
  void write_fully(std::uint64_t fd) {
    bool done = false;
    while (!done) {
      adapter_->write(fd, Bytes::mib(1.0), [&](Result<Bytes> r) {
        ASSERT_TRUE(r.is_ok());
        done = r.value().count() == 0;
      });
      cluster_->simulator().run();
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<VfsAdapter> adapter_;
};

TEST_F(VfsWriteTest, CreateRegistersFileAndAllocatesBandwidth) {
  const std::uint64_t fd = create_file("new-video");
  ASSERT_NE(fd, 0u);
  const auto meta = adapter_->getattr("new-video");
  ASSERT_TRUE(meta.is_ok());
  EXPECT_DOUBLE_EQ(meta.value().bitrate.as_mbps(), 2.0);
  // The winning RM holds a 2 Mbit/s write allocation while the fd is open.
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i) total += cluster_->rm(i).allocated().as_mbps();
  EXPECT_NEAR(total, 2.0, 1e-9);
}

TEST_F(VfsWriteTest, FullWriteCommitsDurableReplica) {
  const std::uint64_t fd = create_file("new-video");
  ASSERT_NE(fd, 0u);
  const FileId id = adapter_->getattr("new-video").value().id;
  write_fully(fd);
  adapter_->release(fd);
  cluster_->simulator().run();

  EXPECT_EQ(cluster_->mm().replica_count(id), 1u);
  // The written file is immediately streamable.
  bool ok = false;
  cluster_->client(0).stream_file(id, [&](const Status& s) { ok = s.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(ok);
  // Allocation was returned at release.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster_->rm(i).allocated(), Bandwidth::zero());
  }
}

TEST_F(VfsWriteTest, WritePacingMatchesBitrate) {
  const std::uint64_t fd = create_file("new-video", 2.0, 10.0);  // 2 Mbit/s
  const SimTime before = cluster_->simulator().now();
  Bytes got;
  adapter_->write(fd, Bytes::of(250'000), [&](Result<Bytes> r) { got = r.value(); });
  cluster_->simulator().run();
  EXPECT_EQ(got, Bytes::of(250'000));
  // 250 kB at 250 kB/s = 1 s.
  EXPECT_NEAR((cluster_->simulator().now() - before).as_seconds(), 1.0, 1e-6);
  adapter_->release(fd);
  cluster_->simulator().run();
}

TEST_F(VfsWriteTest, PartialWriteRollsBack) {
  const std::uint64_t fd = create_file("new-video");
  ASSERT_NE(fd, 0u);
  const FileId id = adapter_->getattr("new-video").value().id;
  // Write only a fraction, then close: the torn file must vanish.
  adapter_->write(fd, Bytes::of(100'000), [](Result<Bytes>) {});
  cluster_->simulator().run();
  adapter_->release(fd);
  cluster_->simulator().run();

  EXPECT_EQ(cluster_->mm().replica_count(id), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(cluster_->rm(i).has_replica(id)) << "RM" << i + 1;
    EXPECT_EQ(cluster_->rm(i).allocated(), Bandwidth::zero());
  }
}

TEST_F(VfsWriteTest, WriteClampsAtDeclaredSize) {
  const std::uint64_t fd = create_file("new-video", 2.0, 1.0);  // 250 kB file
  Bytes first;
  adapter_->write(fd, Bytes::mib(10.0), [&](Result<Bytes> r) { first = r.value(); });
  cluster_->simulator().run();
  EXPECT_EQ(first, Bytes::of(250'000));
  Bytes eof = Bytes::of(-1);
  adapter_->write(fd, Bytes::of(1), [&](Result<Bytes> r) { eof = r.value(); });
  cluster_->simulator().run();
  EXPECT_EQ(eof, Bytes::zero());
  adapter_->release(fd);
  cluster_->simulator().run();
}

TEST_F(VfsWriteTest, CreateDuplicateNameFails) {
  ASSERT_NE(create_file("new-video"), 0u);
  bool failed = false;
  adapter_->create("new-video", Bandwidth::mbps(1.0), SimTime::seconds(1.0),
                   [&](Result<std::uint64_t> r) { failed = !r.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(failed);
}

TEST_F(VfsWriteTest, CreateExistingCatalogNameFails) {
  bool failed = false;
  adapter_->create("file-1", Bandwidth::mbps(1.0), SimTime::seconds(1.0),
                   [&](Result<std::uint64_t> r) {
                     failed = r.status().code() == StatusCode::kAlreadyExists;
                   });
  cluster_->simulator().run();
  EXPECT_TRUE(failed);
}

TEST_F(VfsWriteTest, CreateWithoutClusterFails) {
  VfsAdapter bare{cluster_->client(0), cluster_->mm(), cluster_->directory(),
                  cluster_->simulator()};
  bool failed = false;
  bare.create("x", Bandwidth::mbps(1.0), SimTime::seconds(1.0),
              [&](Result<std::uint64_t> r) {
                failed = r.status().code() == StatusCode::kFailedPrecondition;
              });
  EXPECT_TRUE(failed);
}

TEST_F(VfsWriteTest, WriteOnReadDescriptorFails) {
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  std::uint64_t fd = 0;
  adapter_->open("file-1", [&](Result<std::uint64_t> r) { fd = r.value_or(0); });
  cluster_->simulator().run();
  ASSERT_NE(fd, 0u);
  bool failed = false;
  adapter_->write(fd, Bytes::of(1), [&](Result<Bytes> r) { failed = !r.is_ok(); });
  EXPECT_TRUE(failed);
  adapter_->release(fd);
  cluster_->simulator().run();
}

TEST_F(VfsWriteTest, DestroyReleasesEverything) {
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  std::uint64_t rfd = 0;
  adapter_->open("file-1", [&](Result<std::uint64_t> r) { rfd = r.value_or(0); });
  cluster_->simulator().run();
  const std::uint64_t wfd = create_file("unfinished");
  ASSERT_NE(rfd, 0u);
  ASSERT_NE(wfd, 0u);
  EXPECT_EQ(adapter_->open_descriptors(), 2u);

  adapter_->destroy();  // unmount
  cluster_->simulator().run();
  EXPECT_EQ(adapter_->open_descriptors(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster_->rm(i).allocated(), Bandwidth::zero()) << "RM" << i + 1;
  }
  // The unfinished write rolled back.
  const FileId id = adapter_->getattr("unfinished").value().id;
  EXPECT_EQ(cluster_->mm().replica_count(id), 0u);
}

TEST_F(VfsWriteTest, ReaddirSeesCommittedFileOnly) {
  const std::uint64_t fd = create_file("new-video");
  std::vector<std::string> names;
  adapter_->readdir([&](Result<std::vector<std::string>> n) { names = n.value(); });
  cluster_->simulator().run();
  EXPECT_TRUE(names.empty());  // not committed yet

  write_fully(fd);
  adapter_->release(fd);
  cluster_->simulator().run();
  adapter_->readdir([&](Result<std::vector<std::string>> n) { names = n.value(); });
  cluster_->simulator().run();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "new-video");
}

}  // namespace
}  // namespace sqos::dfs
