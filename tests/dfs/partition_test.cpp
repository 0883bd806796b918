// Network-partition fault injection: cut links lose messages silently, and
// every protocol leg must recover through its own deadline rather than hang.
#include <gtest/gtest.h>

#include "dfs/vfs_adapter.hpp"
#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  void build(core::AllocationMode mode = core::AllocationMode::kFirm) {
    ClusterConfig cfg = sqos::testing::small_cluster_config();
    cfg.mode = mode;
    cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
    cluster_->start();
    cluster_->simulator().run();
  }

  net::NodeId mm_node() { return cluster_->mm().shard(0).node_id(); }

  std::unique_ptr<Cluster> cluster_;
};

TEST(NetworkPartition, DropsMessagesOnCutLinks) {
  sim::Simulator sim;
  net::LatencyModel::Params lp;
  lp.jitter_mean = SimTime::zero();
  net::Network net{sim, net::LatencyModel{lp, Rng{1}}};
  const net::NodeId a = net.register_node("a");
  const net::NodeId b = net.register_node("b");
  EXPECT_TRUE(net.link_up(a, b));

  net.set_link_down(a, b);
  bool delivered = false;
  net.send(a, b, net::MessageKind::kCfp, Bytes::of(8), [&] { delivered = true; });
  net.send(b, a, net::MessageKind::kBid, Bytes::of(8), [&] { delivered = true; });
  sim.run();
  EXPECT_FALSE(delivered);  // the cut is bidirectional
  EXPECT_EQ(net.stats().dropped_messages, 2u);

  net.set_link_up(a, b);
  net.send(a, b, net::MessageKind::kCfp, Bytes::of(8), [&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST_F(PartitionTest, ClientCutFromMatchmakerFailsOpensCleanly) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  cluster_->network().set_link_down(cluster_->client(0).node_id(), mm_node());

  Status result;
  bool called = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) {
    called = true;
    result = s;
  });
  cluster_->simulator().run();
  ASSERT_TRUE(called) << "open must not hang across a matchmaker partition";
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);

  // Healing the partition restores service.
  cluster_->network().set_link_up(cluster_->client(0).node_id(), mm_node());
  bool ok = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) { ok = s.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(ok);
}

TEST_F(PartitionTest, ClientCutFromOneRmFallsBackToOther) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  // The client cannot reach RM1 (index 0); its CFP is lost and the bid
  // timeout decides on RM2's bid alone.
  cluster_->network().set_link_down(cluster_->client(0).node_id(),
                                    cluster_->rm(0).node_id());
  bool ok = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) { ok = s.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster_->client(0).counters().bid_timeouts, 1u);
  EXPECT_EQ(cluster_->rm(1).counters().data_requests, 1u);
}

TEST_F(PartitionTest, WritePathSurvivesMatchmakerPartition) {
  build();
  FileMeta meta;
  meta.id = 100;
  meta.name = "partitioned";
  meta.bitrate = Bandwidth::mbps(1.0);
  meta.size = Bytes::of(1'000'000);
  ASSERT_TRUE(cluster_->add_file(meta).is_ok());
  cluster_->network().set_link_down(cluster_->client(0).node_id(), mm_node());

  Status result;
  bool called = false;
  cluster_->client(0).write_file(100, 1, [&](const Status& s) {
    called = true;
    result = s;
  });
  cluster_->simulator().run();
  ASSERT_TRUE(called);
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_EQ(cluster_->mm().replica_count(100), 0u);
}

TEST_F(PartitionTest, ReaddirFailsCleanlyAcrossMatchmakerPartition) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  VfsAdapter vfs{cluster_->client(0), cluster_->mm(), cluster_->directory(),
                 cluster_->simulator()};
  cluster_->network().set_link_down(cluster_->client(0).node_id(), mm_node());

  int calls = 0;
  Status result;
  vfs.readdir([&](const Result<std::vector<std::string>>& names) {
    ++calls;
    result = names.status();
  });
  cluster_->simulator().run();
  ASSERT_EQ(calls, 1) << "readdir must not hang across a matchmaker partition";
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_EQ(cluster_->client(0).counters().bid_timeouts, 1u);

  // Healing the partition restores the listing.
  cluster_->network().set_link_up(cluster_->client(0).node_id(), mm_node());
  std::vector<std::string> listed;
  vfs.readdir([&](const Result<std::vector<std::string>>& names) {
    ASSERT_TRUE(names.is_ok());
    listed = names.value();
  });
  cluster_->simulator().run();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0], "file-1");
}

TEST_F(PartitionTest, RmCutFromMatchmakerDuringReplication) {
  // The replication source cannot reach the MM: its replica-list queries
  // are lost; the round's bookkeeping must not wedge the trigger forever.
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.mode = core::AllocationMode::kSoft;
  cfg.replication = core::ReplicationConfig::rep(1, 3);
  cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
  cluster_->start();
  cluster_->simulator().run();
  ASSERT_TRUE(cluster_->place_replica(1, 4).is_ok());
  cluster_->network().set_link_down(cluster_->rm(1).node_id(), mm_node());

  for (int i = 0; i < 3; ++i) cluster_->client(0).stream_file(4);
  cluster_->simulator().run();
  // The round started but its query was lost; no copies happen, and the
  // round deadline released the source role instead of wedging it.
  EXPECT_EQ(cluster_->replication().counters().copies_completed, 0u);
  EXPECT_GE(cluster_->replication().counters().rounds_timed_out, 1u);
  EXPECT_FALSE(cluster_->rm(1).trigger().is_source());
}

}  // namespace
}  // namespace sqos::dfs
