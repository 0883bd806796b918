#include "dfs/resource_manager.hpp"

#include <gtest/gtest.h>

#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

/// Report a data request's outcome to `on_done`, which must outlive the
/// report.
template <typename F>
DataCompletion report_to(F& on_done) {
  return {[](void* context, std::uint32_t, const DataCompleteMsg& m) {
            (*static_cast<F*>(context))(m);
          },
          &on_done};
}

/// Drives one RM directly (no client), with the cluster supplying wiring.
class ResourceManagerTest : public ::testing::Test {
 protected:
  ResourceManagerTest() : cluster_{sqos::testing::make_small_cluster()} {}

  ResourceManager& rm(std::size_t i = 0) { return cluster_->rm(i); }
  sim::Simulator& sim() { return cluster_->simulator(); }

  DataRequestMsg stream_request(FileId file, std::uint64_t open_id = 1, bool firm = false) {
    DataRequestMsg m;
    m.open_id = open_id;
    m.file = file;
    m.rate = cluster_->directory().get(file).bitrate;
    m.firm = firm;
    m.auto_complete = true;
    return m;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ResourceManagerTest, PlaceReplicaUpdatesDiskAndOccupancy) {
  EXPECT_EQ(rm().stored_file_count(), 0u);
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  EXPECT_TRUE(rm().has_replica(1));
  EXPECT_EQ(rm().stored_file_count(), 1u);
  EXPECT_EQ(rm().occupation().file_count(), 1u);
  EXPECT_EQ(rm().occupation().average(), SimTime::seconds(100.0));
  // Duplicate placement fails.
  EXPECT_FALSE(rm().place_replica(1).is_ok());
}

TEST_F(ResourceManagerTest, RegisterMsgDescribesResources) {
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  ASSERT_TRUE(rm().place_replica(2).is_ok());
  const RegisterMsg msg = rm().make_register_msg();
  EXPECT_EQ(msg.rm, rm().node_id());
  EXPECT_EQ(msg.dispatched_bandwidth, Bandwidth::mbps(40.0));
  EXPECT_EQ(msg.stored_files.size(), 2u);
}

TEST_F(ResourceManagerTest, BidReflectsRemainingBandwidth) {
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  CfpMsg cfp;
  cfp.open_id = 9;
  cfp.file = 1;
  cfp.required = Bandwidth::mbps(1.0);
  const BidMsg bid = rm().handle_cfp(cfp);
  EXPECT_EQ(bid.open_id, 9u);
  EXPECT_EQ(bid.rm, rm().node_id());
  EXPECT_TRUE(bid.has_file);
  EXPECT_DOUBLE_EQ(bid.info.b_rem_bps, Bandwidth::mbps(40.0).bps());
  EXPECT_DOUBLE_EQ(bid.info.b_req_bps, Bandwidth::mbps(1.0).bps());
  EXPECT_EQ(rm().counters().cfps_answered, 1u);
}

TEST_F(ResourceManagerTest, BidHasFileFalseWithoutReplica) {
  CfpMsg cfp;
  cfp.file = 1;
  cfp.required = Bandwidth::mbps(1.0);
  EXPECT_FALSE(rm().handle_cfp(cfp).has_file);
}

TEST_F(ResourceManagerTest, StreamAllocatesAndAutoCompletes) {
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  bool completed = false;
  auto on_done = [&](const DataCompleteMsg& m) {
    completed = true;
    EXPECT_TRUE(m.accepted);
  };
  const bool ok = rm().handle_data_request(cluster_->client(0).node_id(), stream_request(1),
                                           report_to(on_done));
  EXPECT_TRUE(ok);
  EXPECT_DOUBLE_EQ(rm().allocated().as_mbps(), 1.0);
  // File 1: 100 s at its bitrate.
  sim().run_until(SimTime::seconds(99.0));
  EXPECT_FALSE(completed);
  EXPECT_DOUBLE_EQ(rm().allocated().as_mbps(), 1.0);
  sim().run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(rm().allocated(), Bandwidth::zero());
  EXPECT_EQ(rm().counters().streams_completed, 1u);
}

TEST_F(ResourceManagerTest, FirmRejectsWhenOverCap) {
  ASSERT_TRUE(cluster_->rm(1).place_replica(4).is_ok());  // RM2: 10 Mbit/s cap
  ResourceManager& small = cluster_->rm(1);
  // file 4 streams at 4 Mbit/s: two fit under 10, the third does not.
  int rejects = 0;
  auto on_done = [&](const DataCompleteMsg& done) {
    if (!done.accepted) ++rejects;
  };
  for (int i = 0; i < 3; ++i) {
    DataRequestMsg m = stream_request(4, static_cast<std::uint64_t>(i), /*firm=*/true);
    small.handle_data_request(cluster_->client(0).node_id(), m, report_to(on_done));
  }
  EXPECT_DOUBLE_EQ(small.allocated().as_mbps(), 8.0);
  EXPECT_EQ(small.counters().firm_rejects, 1u);
  sim().run();
  EXPECT_EQ(rejects, 1);
  // Firm invariant: the cap was never exceeded.
  EXPECT_LE(small.ledger().overallocated_bytes(), 0.0);
}

TEST_F(ResourceManagerTest, SoftModeOverAllocates) {
  ResourceManager& small = cluster_->rm(1);  // 10 Mbit/s
  ASSERT_TRUE(small.place_replica(4).is_ok());
  for (int i = 0; i < 4; ++i) {  // 4 x 4 Mbit/s = 16 on a 10 cap
    small.handle_data_request(cluster_->client(0).node_id(),
                              stream_request(4, static_cast<std::uint64_t>(i)), {});
  }
  EXPECT_DOUBLE_EQ(small.allocated().as_mbps(), 16.0);
  sim().run();
  EXPECT_GT(small.ledger().overallocated_bytes(), 0.0);
  EXPECT_NEAR(small.ledger().overallocate_ratio(), 6.0 / 16.0, 1e-9);
}

TEST_F(ResourceManagerTest, HistoryAndHeatRecordOnServe) {
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  rm().handle_data_request(cluster_->client(0).node_id(), stream_request(1), {});
  EXPECT_EQ(rm().heat().total_accesses(), 1u);
  EXPECT_EQ(rm().heat().accesses(1), 1u);
}

TEST_F(ResourceManagerTest, ExplicitSessionHoldsUntilRelease) {
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  DataRequestMsg m = stream_request(1, 77);
  m.auto_complete = false;
  bool acked = false;
  auto on_ack = [&](const DataCompleteMsg& ack) {
    acked = true;
    EXPECT_TRUE(ack.accepted);
  };
  rm().handle_data_request(cluster_->client(0).node_id(), m, report_to(on_ack));
  sim().run();  // long after the nominal duration
  EXPECT_TRUE(acked);
  EXPECT_DOUBLE_EQ(rm().allocated().as_mbps(), 1.0);  // still held
  ReleaseMsg rel;
  rel.open_id = 77;
  rm().handle_release(cluster_->client(0).node_id(), rel);
  EXPECT_EQ(rm().allocated(), Bandwidth::zero());
  EXPECT_EQ(rm().counters().releases, 1u);
}

TEST_F(ResourceManagerTest, ReleaseUnknownSessionIsSafe) {
  ReleaseMsg rel;
  rel.open_id = 999;
  rm().handle_release(cluster_->client(0).node_id(), rel);
  EXPECT_EQ(rm().counters().releases, 1u);
}

TEST_F(ResourceManagerTest, ReplicationRequestAcceptReject) {
  ResourceManager& dest = cluster_->rm(1);  // empty, idle
  ReplicationRequestMsg req;
  req.transfer_id = 1;
  req.source = rm().node_id();
  req.file = 1;
  req.size = cluster_->directory().get(1).size;
  req.file_bandwidth = cluster_->directory().get(1).bitrate;

  const ReplicationResponseMsg accept = dest.handle_replication_request(req);
  EXPECT_TRUE(accept.accepted);
  EXPECT_TRUE(dest.trigger().is_destination());

  // Same file again while pending: reject (already has / pending replica).
  req.transfer_id = 2;
  EXPECT_FALSE(dest.handle_replication_request(req).accepted);
  EXPECT_EQ(dest.counters().replication_rejects, 1u);
}

TEST_F(ResourceManagerTest, ReplicationInFinishStoresReplica) {
  ResourceManager& dest = cluster_->rm(1);
  ReplicationRequestMsg req;
  req.transfer_id = 1;
  req.file = 2;
  req.size = cluster_->directory().get(2).size;
  req.file_bandwidth = cluster_->directory().get(2).bitrate;
  ASSERT_TRUE(dest.handle_replication_request(req).accepted);

  const storage::FlowId flow = dest.begin_replication_in(2, Bandwidth::mbps(1.8));
  EXPECT_DOUBLE_EQ(dest.replication_lane_rate().as_mbps(), 1.8);
  // The reserved replication lane does not consume stream allocation.
  EXPECT_EQ(dest.allocated(), Bandwidth::zero());
  ASSERT_TRUE(dest.finish_replication_in(flow, 2).is_ok());
  EXPECT_TRUE(dest.has_replica(2));
  EXPECT_FALSE(dest.trigger().is_destination());
  EXPECT_EQ(dest.replication_lane_rate(), Bandwidth::zero());
  EXPECT_EQ(dest.counters().replicas_received, 1u);
  EXPECT_EQ(dest.occupation().file_count(), 1u);
}

TEST_F(ResourceManagerTest, AbortReplicationRollsBack) {
  ResourceManager& dest = cluster_->rm(1);
  ReplicationRequestMsg req;
  req.transfer_id = 1;
  req.file = 2;
  req.size = cluster_->directory().get(2).size;
  req.file_bandwidth = cluster_->directory().get(2).bitrate;
  ASSERT_TRUE(dest.handle_replication_request(req).accepted);
  const storage::FlowId flow = dest.begin_replication_in(2, Bandwidth::mbps(1.8));
  dest.abort_replication_in(flow, 2);
  EXPECT_FALSE(dest.has_replica(2));
  EXPECT_FALSE(dest.trigger().is_destination());
  // The file can be offered again.
  req.transfer_id = 3;
  EXPECT_TRUE(dest.handle_replication_request(req).accepted);
}

TEST_F(ResourceManagerTest, DeleteReplicaClearsAllState) {
  ASSERT_TRUE(rm().place_replica(1).is_ok());
  rm().handle_data_request(cluster_->client(0).node_id(), stream_request(1), {});
  ASSERT_TRUE(rm().delete_replica(1).is_ok());
  EXPECT_FALSE(rm().has_replica(1));
  EXPECT_EQ(rm().occupation().file_count(), 0u);
  EXPECT_EQ(rm().heat().accesses(1), 0u);
  EXPECT_EQ(rm().counters().replicas_deleted, 1u);
  EXPECT_FALSE(rm().delete_replica(1).is_ok());
}

TEST_F(ResourceManagerTest, DestinationRejectsWhenDiskFull) {
  // Fill RM2's 1 GiB disk so the next replica cannot be stored.
  ResourceManager& dest = cluster_->rm(1);
  dfs::FileDirectory big = sqos::testing::tiny_catalog(4);
  // Use repeated placements of the catalog's files to approach capacity: each
  // file k is ~12.5 * k MB; instead simulate fullness via many placements.
  // Simpler: request a replica whose size exceeds free space directly.
  ReplicationRequestMsg req;
  req.transfer_id = 1;
  req.file = 3;
  req.size = Bytes::gib(2.0);  // larger than the disk
  req.file_bandwidth = Bandwidth::mbps(1.0);
  EXPECT_FALSE(dest.handle_replication_request(req).accepted);
}

}  // namespace
}  // namespace sqos::dfs
