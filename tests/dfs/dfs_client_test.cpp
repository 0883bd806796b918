#include "dfs/dfs_client.hpp"

#include <gtest/gtest.h>

#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

class DfsClientTest : public ::testing::Test {
 protected:
  void build(core::AllocationMode mode, core::PolicyWeights policy = core::PolicyWeights::p100(),
             NegotiationModel negotiation = NegotiationModel::kEcnp) {
    ClusterConfig cfg = sqos::testing::small_cluster_config();
    cfg.mode = mode;
    cfg.policy = policy;
    cfg.negotiation = negotiation;
    cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
    cluster_->start();
    cluster_->simulator().run();  // settle registration
  }

  void place(std::size_t rm, FileId file) {
    ASSERT_TRUE(cluster_->place_replica(rm, file).is_ok());
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(DfsClientTest, StreamCompletesThreePhaseFlow) {
  build(core::AllocationMode::kFirm);
  place(0, 1);
  place(1, 1);
  bool done = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) {
    done = true;
    EXPECT_TRUE(s.is_ok()) << s.to_string();
  });
  cluster_->simulator().run();
  EXPECT_TRUE(done);
  const auto& c = cluster_->client(0).counters();
  EXPECT_EQ(c.opens_attempted, 1u);
  EXPECT_EQ(c.opens_failed, 0u);
  EXPECT_EQ(c.streams_completed, 1u);
  EXPECT_EQ(c.cfps_sent, 2u);       // ECNP: only the two holders get a CFP
  EXPECT_EQ(c.bids_received, 2u);
}

TEST_F(DfsClientTest, EcnpQueriesTheMatchmakerFirst) {
  build(core::AllocationMode::kFirm);
  place(0, 1);
  cluster_->network().reset_stats();
  cluster_->client(0).stream_file(1);
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kResourceQuery), 1u);
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kCfp), 1u);
}

TEST_F(DfsClientTest, CnpBroadcastsToEveryRm) {
  build(core::AllocationMode::kFirm, core::PolicyWeights::p100(), NegotiationModel::kCnp);
  place(0, 1);
  cluster_->network().reset_stats();
  bool done = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) {
    done = true;
    EXPECT_TRUE(s.is_ok());
  });
  cluster_->simulator().run();
  EXPECT_TRUE(done);
  // No matchmaker query; a CFP went to all 3 RMs and all 3 answered.
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kResourceQuery), 0u);
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kCfp), 3u);
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kBid), 3u);
}

TEST_F(DfsClientTest, FirmOpenFailsWhenNoBandwidth) {
  build(core::AllocationMode::kFirm);
  place(1, 4);  // RM2 (10 Mbit/s); file 4 needs 4 Mbit/s
  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 3; ++i) {
    cluster_->client(0).stream_file(4, [&](const Status& s) {
      s.is_ok() ? ++successes : ++failures;
    });
  }
  cluster_->simulator().run();
  EXPECT_EQ(successes, 2);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(cluster_->client(0).counters().opens_failed, 1u);
}

TEST_F(DfsClientTest, SoftAlwaysAllocates) {
  build(core::AllocationMode::kSoft);
  place(1, 4);
  int successes = 0;
  for (int i = 0; i < 5; ++i) {
    cluster_->client(0).stream_file(4, [&](const Status& s) {
      if (s.is_ok()) ++successes;
    });
  }
  cluster_->simulator().run();
  EXPECT_EQ(successes, 5);
  EXPECT_GT(cluster_->rm(1).ledger().overallocated_bytes(), 0.0);
}

TEST_F(DfsClientTest, OpenOfUnreplicatedFileFails) {
  build(core::AllocationMode::kFirm);
  bool failed = false;
  cluster_->client(0).stream_file(2, [&](const Status& s) {
    failed = !s.is_ok();
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
  });
  cluster_->simulator().run();
  EXPECT_TRUE(failed);
}

TEST_F(DfsClientTest, P100PicksTheLargestRemainingBandwidth) {
  build(core::AllocationMode::kFirm, core::PolicyWeights::p100());
  place(0, 1);  // RM1: 40 Mbit/s
  place(1, 1);  // RM2: 10 Mbit/s
  for (int i = 0; i < 4; ++i) cluster_->client(0).stream_file(1);
  cluster_->simulator().run_until(SimTime::seconds(50.0));
  // All four streams went to RM1 (its B_rem stays the largest throughout).
  EXPECT_DOUBLE_EQ(cluster_->rm(0).allocated().as_mbps(), 4.0);
  EXPECT_EQ(cluster_->rm(1).allocated(), Bandwidth::zero());
}

TEST_F(DfsClientTest, ExplicitOpenAndRelease) {
  build(core::AllocationMode::kFirm);
  place(0, 2);
  std::uint64_t fd = 0;
  cluster_->client(0).open(2, [&](Result<std::uint64_t> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    fd = r.value();
  });
  cluster_->simulator().run();
  EXPECT_NE(fd, 0u);
  EXPECT_DOUBLE_EQ(cluster_->rm(0).allocated().as_mbps(), 2.0);
  cluster_->client(0).release(fd);
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->rm(0).allocated(), Bandwidth::zero());
}

TEST_F(DfsClientTest, QueryHoldersRoundTrip) {
  build(core::AllocationMode::kFirm);
  place(0, 3);
  place(2, 3);
  std::vector<net::NodeId> holders;
  cluster_->client(0).query_holders(
      3, [&](Result<std::vector<net::NodeId>> h) { holders = h.value(); });
  cluster_->simulator().run();
  ASSERT_EQ(holders.size(), 2u);
}

TEST_F(DfsClientTest, NegotiationLatencyIsMeasured) {
  build(core::AllocationMode::kFirm);
  place(0, 1);
  cluster_->client(0).stream_file(1);
  cluster_->simulator().run();
  const auto& c = cluster_->client(0).counters();
  EXPECT_EQ(c.negotiations, 1u);
  // Two control round trips at ~400 us each plus serialization.
  EXPECT_GT(c.negotiation_us_sum, 500u);
  EXPECT_LT(c.negotiation_us_sum, 10'000u);
}

TEST_F(DfsClientTest, FailedNegotiationsAreNotCounted) {
  build(core::AllocationMode::kFirm);
  cluster_->client(0).stream_file(1);  // no replica anywhere
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->client(0).counters().negotiations, 0u);
}

TEST_F(DfsClientTest, CnpModeSupportsWritesViaBroadcast) {
  build(core::AllocationMode::kFirm, core::PolicyWeights::p100(), NegotiationModel::kCnp);
  FileMeta meta;
  meta.id = 50;
  meta.name = "cnp-write";
  meta.bitrate = Bandwidth::mbps(1.0);
  meta.size = Bytes::of(500'000);
  ASSERT_TRUE(cluster_->add_file(meta).is_ok());
  Status result;
  cluster_->client(0).write_file(50, 2, [&](const Status& s) { result = s; });
  cluster_->simulator().run();
  EXPECT_TRUE(result.is_ok()) << result.to_string();
  EXPECT_EQ(cluster_->mm().replica_count(50), 2u);
}

TEST_F(DfsClientTest, HolderCacheSkipsExplorationWithinTtl) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.holder_cache_ttl = SimTime::seconds(100.0);
  cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
  cluster_->start();
  cluster_->simulator().run();
  place(0, 1);

  cluster_->client(0).stream_file(1);
  cluster_->simulator().run_until(SimTime::seconds(1.0));
  cluster_->network().reset_stats();
  cluster_->client(0).stream_file(1);  // within TTL: no MM query
  cluster_->simulator().run_until(SimTime::seconds(2.0));
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kResourceQuery), 0u);
  EXPECT_EQ(cluster_->client(0).counters().holder_cache_hits, 1u);
  EXPECT_EQ(cluster_->client(0).counters().holder_cache_misses, 1u);

  // After the TTL the exploration query returns.
  cluster_->simulator().run_until(SimTime::seconds(150.0));
  cluster_->client(0).stream_file(1);
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kResourceQuery), 1u);
}

TEST_F(DfsClientTest, HolderCacheDisabledByDefault) {
  build(core::AllocationMode::kFirm);
  place(0, 1);
  cluster_->client(0).stream_file(1);
  cluster_->client(0).stream_file(1);
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->client(0).counters().holder_cache_hits, 0u);
  EXPECT_EQ(cluster_->network().stats().count(net::MessageKind::kResourceQuery), 2u);
}

TEST_F(DfsClientTest, StaleCacheEntryInvalidatedByFailure) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.holder_cache_ttl = SimTime::hours(10.0);  // effectively forever
  cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
  cluster_->start();
  cluster_->simulator().run();
  place(0, 1);

  bool ok = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) { ok = s.is_ok(); });
  cluster_->simulator().run();
  ASSERT_TRUE(ok);

  // The only holder crashes; the cached entry points at a dead RM. The next
  // open fails (bid timeout) and invalidates the cache...
  cluster_->fail_rm(0);
  Status second;
  cluster_->client(0).stream_file(1, [&](const Status& s) { second = s; });
  cluster_->simulator().run();
  EXPECT_FALSE(second.is_ok());

  // ...so after recovery, a fresh exploration succeeds despite the long TTL.
  cluster_->recover_rm(0);
  cluster_->simulator().run();
  bool third = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) { third = s.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(third);
}

TEST_F(DfsClientTest, ConcurrentOpensAreIndependent) {
  build(core::AllocationMode::kFirm);
  place(0, 1);
  place(0, 2);
  place(0, 3);
  int completions = 0;
  for (FileId f : {1u, 2u, 3u}) {
    cluster_->client(0).stream_file(f, [&](const Status& s) {
      EXPECT_TRUE(s.is_ok());
      ++completions;
    });
  }
  cluster_->simulator().run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(cluster_->client(0).counters().streams_completed, 3u);
}

}  // namespace
}  // namespace sqos::dfs
