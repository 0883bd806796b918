// Deadline matrix: every negotiation kind (whole-file read, replicated
// write, EC(2,1) striped read) against every way its control plane can go
// quiet — the client cut from the matchmaker (exploration deadline), one
// bid target cut (bid deadline decides on partial bids) and a bid that
// arrives after the deadline already decided. Each cell pins the terminal
// Status code and bid_timeouts, and that the callback fires exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

enum class Kind { kRead, kWrite, kEcRead };
enum class Fault { kMatchmakerCut, kOneTargetCut, kLateBid };

struct Cell {
  Kind kind;
  Fault fault;
  StatusCode code;
  std::uint64_t bid_timeouts;
};

std::ostream& operator<<(std::ostream& os, const Cell& c) {
  static const char* const kKinds[] = {"read", "write", "ec_read"};
  static const char* const kFaults[] = {"mm_cut", "target_cut", "late_bid"};
  return os << kKinds[static_cast<int>(c.kind)] << "/" << kFaults[static_cast<int>(c.fault)];
}

constexpr FileId kWrittenFile = 100;

/// The 3-RM test cluster; EC cells read under EC(2,1). The late-bid cells
/// swap the jitter-free fabric for a heavy-jitter one against a short
/// deadline: with this seed the exploration reply beats its deadline and at
/// least one bid misses the bid deadline.
std::unique_ptr<Cluster> build(const Cell& cell) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  if (cell.kind == Kind::kEcRead) cfg.layout = storage::LayoutPolicy::erasure(2, 1);
  if (cell.fault == Fault::kLateBid) {
    cfg.latency.jitter_mean = SimTime::millis(2);
    cfg.bid_timeout = SimTime::millis(4);
    cfg.seed = 8;
  }
  auto cluster = sqos::testing::make_small_cluster(std::move(cfg));
  cluster->start();
  cluster->simulator().run();
  switch (cell.kind) {
    case Kind::kRead:
      EXPECT_TRUE(cluster->place_replica(0, 1).is_ok());
      EXPECT_TRUE(cluster->place_replica(1, 1).is_ok());
      break;
    case Kind::kWrite: {
      FileMeta meta;
      meta.id = kWrittenFile;
      meta.name = "written";
      meta.bitrate = Bandwidth::mbps(1.0);
      meta.size = Bytes::of(1'000'000);
      EXPECT_TRUE(cluster->add_file(meta).is_ok());
      break;
    }
    case Kind::kEcRead:
      EXPECT_TRUE(cluster->place_stripe(1, 2, 1, {0, 1, 2}).is_ok());
      break;
  }
  return cluster;
}

class NegotiationDeadline : public ::testing::TestWithParam<Cell> {};

TEST_P(NegotiationDeadline, TerminatesOnceWithPinnedOutcome) {
  const Cell& cell = GetParam();
  auto cluster = build(cell);
  DfsClient& client = cluster->client(0);
  net::Network& net = cluster->network();
  switch (cell.fault) {
    case Fault::kMatchmakerCut:
      net.set_link_down(client.node_id(), cluster->mm().shard(0).node_id());
      break;
    case Fault::kOneTargetCut:
      net.set_link_down(client.node_id(), cluster->rm(0).node_id());
      break;
    case Fault::kLateBid:
      break;
  }

  int calls = 0;
  Status result;
  const auto done = [&](const Status& s) {
    ++calls;
    result = s;
  };
  if (cell.kind == Kind::kWrite) {
    client.write_file(kWrittenFile, 1, done);
  } else {
    client.stream_file(1, done);
  }
  cluster->simulator().run();

  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result.code(), cell.code) << result.to_string();
  EXPECT_EQ(client.counters().bid_timeouts, cell.bid_timeouts);
  if (cell.fault == Fault::kLateBid) {
    // Some RM answered a CFP whose bid the client never counted: it landed
    // after the decision and was dropped.
    std::uint64_t answered = 0;
    for (std::size_t i = 0; i < cluster->rm_count(); ++i) {
      answered += cluster->rm(i).counters().cfps_answered;
    }
    EXPECT_GT(answered, client.counters().bids_received);
  }
}

/// One client carrying hundreds of negotiations at once, every outcome
/// mixed in: streamed reads that succeed, firm-mode rejects (at selection
/// and RM-side), a bid deadline on every negotiation that CFPs a partitioned
/// holder, and a 2-replica write whose top-ranked target crashes
/// mid-transfer so the copy fails over. Each callback fires exactly once
/// and the client's counters add up.
TEST(ManyNegotiations, OneClientCarriesHundredsAtOnce) {
  ClusterConfig cfg;
  cfg.machines.push_back(MachineSpec{"m1", Bandwidth::mbps(200.0)});
  cfg.machines.push_back(MachineSpec{"m2", Bandwidth::mbps(200.0)});
  cfg.rms.push_back(RmSpec{"RM1", Bandwidth::mbps(40.0), Bytes::gib(1.0), 0});
  cfg.rms.push_back(RmSpec{"RM2", Bandwidth::mbps(10.0), Bytes::gib(1.0), 1});
  cfg.rms.push_back(RmSpec{"RM3", Bandwidth::mbps(10.0), Bytes::gib(1.0), 1});  // cut off
  cfg.rms.push_back(RmSpec{"RM4", Bandwidth::mbps(10.0), Bytes::gib(1.0), 1});  // file 2 only
  cfg.rms.push_back(RmSpec{"RM5", Bandwidth::mbps(10.0), Bytes::gib(1.0), 0});
  cfg.rms.push_back(RmSpec{"RM6", Bandwidth::mbps(50.0), Bytes::gib(1.0), 0});  // crashes
  cfg.client_count = 1;
  cfg.mode = core::AllocationMode::kFirm;
  cfg.latency.jitter_mean = SimTime::zero();
  cfg.seed = 42;
  // File k streams at 0.1 k Mbit/s for 100 s.
  auto cluster = sqos::testing::make_small_cluster(std::move(cfg),
                                                   sqos::testing::tiny_catalog(4, 0.1));
  cluster->start();
  sim::Simulator& sim = cluster->simulator();
  sim.run();
  for (const std::size_t rm : {0u, 1u, 2u}) ASSERT_TRUE(cluster->place_replica(rm, 1).is_ok());
  ASSERT_TRUE(cluster->place_replica(3, 2).is_ok());
  FileMeta written;
  written.id = kWrittenFile;
  written.name = "written";
  written.bitrate = Bandwidth::mbps(1.0);
  written.size = Bytes::of(static_cast<std::int64_t>(written.bitrate.bps() * 30.0));
  ASSERT_TRUE(cluster->add_file(written).is_ok());

  DfsClient& client = cluster->client(0);
  cluster->network().set_link_down(client.node_id(), cluster->rm(2).node_id());

  // 200 reads of file 1 (20 Mbit/s, all fit on RM1) and 100 of file 2
  // (0.2 Mbit/s each on RM4's 10: 50 fit), 2 ms apart, all within 0.6 s of
  // streams that last 100 s.
  constexpr std::size_t kFile1Reads = 200;
  constexpr std::size_t kFile2Reads = 100;
  constexpr std::size_t kReads = kFile1Reads + kFile2Reads;
  std::vector<int> calls(kReads, 0);
  std::vector<StatusCode> codes(kReads, StatusCode::kOk);
  const SimTime t0 = sim.now();
  for (std::size_t i = 0; i < kReads; ++i) {
    const FileId file = i % 3 == 2 ? 2 : 1;
    sim.schedule_at(t0 + SimTime::millis(2 * static_cast<std::int64_t>(i)),
                    [&client, &calls, &codes, i, file] {
                      client.stream_file(file, [&calls, &codes, i](const Status& s) {
                        ++calls[i];
                        codes[i] = s.code();
                      });
                    });
  }
  int write_calls = 0;
  Status write_status;
  sim.schedule_at(t0 + SimTime::millis(100), [&] {
    client.write_file(kWrittenFile, 2, [&](const Status& s) {
      ++write_calls;
      write_status = s;
    });
  });
  // RM6 (the best write target) dies mid-copy and comes back after the run.
  sim.schedule_at(t0 + SimTime::seconds(10.0), [&cluster] { cluster->fail_rm(5); });

  sim.run_until(t0 + SimTime::seconds(50.0));
  const auto finished = static_cast<std::size_t>(std::count(calls.begin(), calls.end(), 1));
  EXPECT_GE(kReads + 1 - finished - static_cast<std::size_t>(write_calls), 200u)
      << "negotiations in flight at once";
  sim.run();
  cluster->recover_rm(5);
  sim.run();

  std::size_t ok = 0;
  std::size_t exhausted = 0;
  for (std::size_t i = 0; i < kReads; ++i) {
    ASSERT_EQ(calls[i], 1) << "read " << i;
    if (codes[i] == StatusCode::kOk) ++ok;
    if (codes[i] == StatusCode::kResourceExhausted) ++exhausted;
  }
  EXPECT_EQ(ok + exhausted, kReads);
  EXPECT_EQ(ok, kFile1Reads + 50);
  EXPECT_EQ(write_calls, 1);
  EXPECT_TRUE(write_status.is_ok()) << write_status.to_string();

  const DfsClient::Counters& c = client.counters();
  EXPECT_EQ(c.opens_attempted, kReads);
  EXPECT_EQ(c.streams_completed, ok);
  EXPECT_EQ(c.opens_failed, exhausted);
  EXPECT_EQ(c.writes_attempted, 1u);
  EXPECT_EQ(c.writes_failed, 0u);
  EXPECT_EQ(c.replicas_written, 2u);  // after one failover
  // Every file-1 read and the write CFP'd the cut-off RM3 and decided on
  // partial bids; file-2 reads CFP only RM4.
  EXPECT_EQ(c.bid_timeouts, kFile1Reads + 1);
  const std::uint64_t cfps = 3 * kFile1Reads + kFile2Reads + cluster->rm_count();
  EXPECT_EQ(c.cfps_sent, cfps);
  const std::uint64_t lost = cluster->network().stats().dropped_messages;
  EXPECT_EQ(lost, kFile1Reads + 1);
  EXPECT_EQ(c.bids_received + lost, cfps);
  // The write's first copy was rejected by the crashed RM6.
  std::uint64_t data_requests = 0;
  for (std::size_t i = 0; i < cluster->rm_count(); ++i) {
    data_requests += cluster->rm(i).counters().data_requests;
  }
  EXPECT_EQ(data_requests, ok + cluster->rm(3).counters().firm_rejects + 3);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, NegotiationDeadline,
    ::testing::Values(
        Cell{Kind::kRead, Fault::kMatchmakerCut, StatusCode::kUnavailable, 1},
        Cell{Kind::kRead, Fault::kOneTargetCut, StatusCode::kOk, 1},
        Cell{Kind::kRead, Fault::kLateBid, StatusCode::kOk, 1},
        Cell{Kind::kWrite, Fault::kMatchmakerCut, StatusCode::kUnavailable, 1},
        Cell{Kind::kWrite, Fault::kOneTargetCut, StatusCode::kOk, 1},
        Cell{Kind::kWrite, Fault::kLateBid, StatusCode::kOk, 1},
        Cell{Kind::kEcRead, Fault::kMatchmakerCut, StatusCode::kUnavailable, 1},
        Cell{Kind::kEcRead, Fault::kOneTargetCut, StatusCode::kOk, 1},
        Cell{Kind::kEcRead, Fault::kLateBid, StatusCode::kOk, 1}),
    [](const ::testing::TestParamInfo<Cell>& param_info) {
      std::ostringstream name;
      name << param_info.param;
      std::string s = name.str();
      for (char& ch : s) {
        if (ch == '/') ch = '_';
      }
      return s;
    });

}  // namespace
}  // namespace sqos::dfs
