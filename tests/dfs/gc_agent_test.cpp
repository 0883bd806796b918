#include "dfs/gc_agent.hpp"

#include <gtest/gtest.h>

#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

core::DeletionConfig gc_config() {
  core::DeletionConfig cfg;
  cfg.enabled = true;
  cfg.min_replicas = 1;
  cfg.idle_threshold = SimTime::seconds(300.0);
  cfg.min_age = SimTime::seconds(60.0);
  cfg.scan_interval = SimTime::seconds(60.0);
  return cfg;
}

class GcAgentTest : public ::testing::Test {
 protected:
  void build(core::DeletionConfig cfg = gc_config()) {
    ClusterConfig cluster_cfg = sqos::testing::small_cluster_config();
    cluster_cfg.deletion = cfg;
    cluster_ = sqos::testing::make_small_cluster(std::move(cluster_cfg));
    cluster_->start();
    cluster_->simulator().run();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(GcAgentTest, ReclaimsIdleSurplusReplica) {
  build();
  // File 1 on two RMs; floor is 1, so one replica is surplus.
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  cluster_->gc().start(SimTime::hours(1.0));
  cluster_->simulator().run();

  EXPECT_EQ(cluster_->mm().replica_count(1), 1u);
  EXPECT_EQ(cluster_->gc().counters().deletes_approved, 1u);
  EXPECT_GT(cluster_->gc().counters().bytes_reclaimed, 0u);
  // Exactly one of the two disks still holds the file.
  EXPECT_NE(cluster_->rm(0).has_replica(1), cluster_->rm(1).has_replica(1));
}

TEST_F(GcAgentTest, NeverBreaksTheFloor) {
  core::DeletionConfig cfg = gc_config();
  cfg.min_replicas = 2;
  build(cfg);
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  cluster_->gc().start(SimTime::hours(1.0));
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->mm().replica_count(1), 2u);
  EXPECT_EQ(cluster_->gc().counters().deletes_approved, 0u);
}

TEST_F(GcAgentTest, DisabledGcDoesNothing) {
  build(core::DeletionConfig{});  // disabled
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  cluster_->gc().start(SimTime::hours(1.0));
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->mm().replica_count(1), 2u);
  EXPECT_EQ(cluster_->gc().counters().scans, 0u);
}

TEST_F(GcAgentTest, RecentlyServedReplicaSurvives) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  // Keep file 1 warm on both RMs with periodic accesses (policy p100 picks
  // RM1; pin a stream to each RM via direct data requests).
  for (std::size_t rm : {0u, 1u}) {
    DataRequestMsg m;
    m.open_id = 100 + rm;
    m.file = 1;
    m.rate = cluster_->directory().get(1).bitrate;
    m.auto_complete = true;
    cluster_->simulator().schedule_at(SimTime::seconds(200.0), [this, rm, m] {
      cluster_->rm(rm).handle_data_request(cluster_->client(0).node_id(), m, {});
    });
  }
  cluster_->gc().start(SimTime::seconds(500.0));
  cluster_->simulator().run_until(SimTime::seconds(500.0));
  // Both replicas served at t=200 (stream runs 100 s); idle threshold 300 s
  // is not reached by t=500 for either.
  EXPECT_EQ(cluster_->mm().replica_count(1), 2u);
  cluster_->simulator().run();
}

TEST_F(GcAgentTest, ConcurrentSurplusDeletesCannotDoubleFree) {
  build();
  // Three replicas, floor 1: at most two deletes may ever be approved, and
  // the MM must arbitrate them one at a time even within a single scan.
  ASSERT_TRUE(cluster_->place_replica(0, 2).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 2).is_ok());
  ASSERT_TRUE(cluster_->place_replica(2, 2).is_ok());
  cluster_->gc().start(SimTime::hours(1.0));
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->mm().replica_count(2), 1u);
  EXPECT_EQ(cluster_->gc().counters().deletes_approved, 2u);
  int on_disk = 0;
  for (std::size_t i = 0; i < 3; ++i) on_disk += cluster_->rm(i).has_replica(2) ? 1 : 0;
  EXPECT_EQ(on_disk, 1);
}

TEST_F(GcAgentTest, ScanOnceIsDirectlyDrivable) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  // Advance past idle threshold without starting periodic scans.
  cluster_->simulator().run_until(SimTime::seconds(400.0));
  cluster_->gc().scan_once();
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->gc().counters().scans, 1u);
  EXPECT_EQ(cluster_->mm().replica_count(1), 1u);
}

}  // namespace
}  // namespace sqos::dfs
