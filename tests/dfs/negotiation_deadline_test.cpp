// Deadline matrix: every negotiation kind (whole-file read, replicated
// write, EC(2,1) striped read) against every way its control plane can go
// quiet — the client cut from the matchmaker (exploration deadline), one
// bid target cut (bid deadline decides on partial bids) and a bid that
// arrives after the deadline already decided. Each cell pins the terminal
// Status code and bid_timeouts, and that the callback fires exactly once.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

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
