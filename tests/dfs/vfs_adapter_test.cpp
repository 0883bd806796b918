#include "dfs/vfs_adapter.hpp"

#include <gtest/gtest.h>

#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

class VfsAdapterTest : public ::testing::Test {
 protected:
  VfsAdapterTest() : cluster_{sqos::testing::make_small_cluster()} {
    cluster_->start();
    cluster_->simulator().run();
    EXPECT_TRUE(cluster_->place_replica(0, 1).is_ok());
    EXPECT_TRUE(cluster_->place_replica(0, 2).is_ok());
    adapter_ = std::make_unique<VfsAdapter>(cluster_->client(0), cluster_->mm(),
                                            cluster_->directory(), cluster_->simulator());
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<VfsAdapter> adapter_;
};

TEST_F(VfsAdapterTest, GetattrReturnsMetadata) {
  const auto meta = adapter_->getattr("file-1");
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().id, 1u);
  EXPECT_DOUBLE_EQ(meta.value().bitrate.as_mbps(), 1.0);
  EXPECT_EQ(adapter_->getattr("missing").status().code(), StatusCode::kNotFound);
}

TEST_F(VfsAdapterTest, ReaddirListsReplicatedFiles) {
  std::vector<std::string> names;
  adapter_->readdir([&](Result<std::vector<std::string>> n) { names = n.value(); });
  cluster_->simulator().run();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "file-1");
  EXPECT_EQ(names[1], "file-2");
}

TEST_F(VfsAdapterTest, OpenReadReleaseLifecycle) {
  std::uint64_t fd = 0;
  adapter_->open("file-1", [&](Result<std::uint64_t> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    fd = r.value();
  });
  cluster_->simulator().run();
  ASSERT_NE(fd, 0u);
  EXPECT_EQ(adapter_->open_descriptors(), 1u);
  EXPECT_DOUBLE_EQ(cluster_->rm(0).allocated().as_mbps(), 1.0);

  // file-1: 1 Mbit/s x 100 s = 12.5 MB. Read 1.25 MB -> takes 10 s.
  const SimTime before = cluster_->simulator().now();
  Bytes got;
  adapter_->read(fd, Bytes::of(1'250'000), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.is_ok());
    got = r.value();
  });
  cluster_->simulator().run();
  EXPECT_EQ(got, Bytes::of(1'250'000));
  EXPECT_NEAR((cluster_->simulator().now() - before).as_seconds(), 10.0, 1e-6);

  adapter_->release(fd);
  cluster_->simulator().run();
  EXPECT_EQ(adapter_->open_descriptors(), 0u);
  EXPECT_EQ(cluster_->rm(0).allocated(), Bandwidth::zero());
}

TEST_F(VfsAdapterTest, ReadClampsAtEof) {
  std::uint64_t fd = 0;
  adapter_->open("file-1", [&](Result<std::uint64_t> r) { fd = r.value_or(0); });
  cluster_->simulator().run();
  ASSERT_NE(fd, 0u);
  const Bytes size = cluster_->directory().get(1).size;

  Bytes first;
  adapter_->read(fd, size + Bytes::of(999), [&](Result<Bytes> r) { first = r.value(); });
  cluster_->simulator().run();
  EXPECT_EQ(first, size);

  Bytes eof = Bytes::of(-1);
  adapter_->read(fd, Bytes::of(100), [&](Result<Bytes> r) { eof = r.value(); });
  cluster_->simulator().run();
  EXPECT_EQ(eof, Bytes::zero());
}

TEST_F(VfsAdapterTest, OpenUnknownPathFails) {
  bool failed = false;
  adapter_->open("nope", [&](Result<std::uint64_t> r) { failed = !r.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(failed);
}

TEST_F(VfsAdapterTest, ReadOnClosedDescriptorFails) {
  bool failed = false;
  adapter_->read(123, Bytes::of(10), [&](Result<Bytes> r) { failed = !r.is_ok(); });
  EXPECT_TRUE(failed);
}

TEST_F(VfsAdapterTest, ReleaseUnknownIsSafe) {
  adapter_->release(999);
  EXPECT_EQ(adapter_->open_descriptors(), 0u);
}

}  // namespace
}  // namespace sqos::dfs
