// Golden-trace regression gate: the Chrome trace-event capture of a
// fixed-seed run is a pure function of the run, so it must be byte-identical
// across repeats, across jobs= values, and against the committed golden.
// Refresh procedure (after an intentional instrumentation change):
//   SQOS_UPDATE_GOLDEN=1 ./build/tests/integration_tests
//       --gtest_filter='GoldenTrace.MatchesCommittedGolden'
// then review and commit the regenerated file (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "dfs/cluster.hpp"
#include "dfs/vfs_adapter.hpp"
#include "exp/experiment.hpp"
#include "obs/recorder.hpp"

namespace sqos {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in.good()) return {};
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Equality on multi-KB traces with a readable failure: sizes plus the
/// offset and context of the first divergence instead of a full dump.
void expect_same_trace(const std::string& got, const std::string& want,
                       const std::string& what) {
  if (got == want) return;
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  const auto context = [i](const std::string& s) {
    const std::size_t from = i < 40 ? 0 : i - 40;
    return s.substr(from, 80);
  };
  ADD_FAILURE() << what << ": traces differ (" << got.size() << " vs " << want.size()
                << " bytes), first divergence at byte " << i << "\n  got:  ..."
                << context(got) << "...\n  want: ..." << context(want) << "...";
}

/// A shrunk Table-1 cell: firm mode, α-only policy, few users, small
/// catalog — enough traffic to exercise negotiation, transfers, rejects and
/// the queue-depth probe while keeping the committed golden small.
exp::ExperimentParams golden_params() {
  exp::ExperimentParams params;
  params.users = 6;
  params.mode = core::AllocationMode::kFirm;
  params.policy = core::PolicyWeights::p100();
  params.seed = 1;
  params.catalog.file_count = 40;
  return params;
}

std::string run_with_trace(const std::string& name, std::size_t seeds, std::size_t jobs) {
  const std::string path = ::testing::TempDir() + name;
  exp::ExperimentParams params = golden_params();
  params.obs_trace_path = path;
  (void)exp::run_averaged(params, seeds, jobs);
  std::string trace = read_file(path);
  std::remove(path.c_str());
  return trace;
}

TEST(GoldenTrace, RepeatedRunsAreByteIdentical) {
  const std::string first = run_with_trace("golden_trace_a.json", 1, 1);
  const std::string second = run_with_trace("golden_trace_b.json", 1, 1);
  ASSERT_FALSE(first.empty());
  expect_same_trace(second, first, "repeat run");
}

TEST(GoldenTrace, TraceIsIndependentOfJobsValue) {
  // Two seeds: only seed 0 records, so the parallel fan-out must not let
  // the second worker touch (or race) the trace.
  const std::string serial = run_with_trace("golden_trace_j1.json", 2, 1);
  const std::string parallel = run_with_trace("golden_trace_j4.json", 2, 4);
  ASSERT_FALSE(serial.empty());
  expect_same_trace(parallel, serial, "jobs=4 vs jobs=1");
}

TEST(GoldenTrace, MatchesCommittedGolden) {
  const std::string golden_path = std::string{SQOS_GOLDEN_DIR} + "/table1_small_trace.json";
  const std::string trace = run_with_trace("golden_trace_g.json", 1, 1);
  ASSERT_FALSE(trace.empty());

  if (std::getenv("SQOS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << trace;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path << " — review and commit it";
  }

  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << golden_path
                               << " (regenerate with SQOS_UPDATE_GOLDEN=1)";
  expect_same_trace(trace, golden, "committed golden");
}

/// Compares `trace` against the committed golden `name`, or rewrites the
/// golden when SQOS_UPDATE_GOLDEN is set.
void check_against_golden(const std::string& trace, const std::string& name) {
  const std::string golden_path = std::string{SQOS_GOLDEN_DIR} + "/" + name;
  if (std::getenv("SQOS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << trace;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path << " — review and commit it";
  }
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << golden_path
                               << " (regenerate with SQOS_UPDATE_GOLDEN=1)";
  expect_same_trace(trace, golden, "committed golden " + name);
}

/// The write and EC negotiation paths, which the Table-1 golden never
/// reaches: a 4-RM EC(2,1) cluster, jitter-free, running one phase at a
/// time to quiescence —
///   1. a healthy striped read of file 1;
///   2. the client cut from RM1 (shard 0 of file 1): the CFP is lost, the
///      bid deadline decides on the other two shards, and the read is
///      degraded (parity shard substituted);
///   3. a read of file 3, which has whole-file replicas and no stripe (the
///      stripe query answers k = 0 and the read falls back to the
///      whole-file negotiation);
///   4. write_file with 2 replicas; the top-ranked target crashes
///      mid-transfer and the copy fails over to the next-ranked candidate;
///   5. a VFS create/write/release, i.e. an explicit write session.
struct WriteEcRun {
  std::string trace;
  dfs::DfsClient::Counters counters;
};

WriteEcRun run_write_ec_scenario() {
  dfs::ClusterConfig cfg;
  cfg.machines.push_back(dfs::MachineSpec{"m1", Bandwidth::mbps(60.0)});
  cfg.machines.push_back(dfs::MachineSpec{"m2", Bandwidth::mbps(60.0)});
  cfg.rms.push_back(dfs::RmSpec{"RM1", Bandwidth::mbps(40.0), Bytes::gib(1.0), 0});
  cfg.rms.push_back(dfs::RmSpec{"RM2", Bandwidth::mbps(10.0), Bytes::gib(1.0), 1});
  cfg.rms.push_back(dfs::RmSpec{"RM3", Bandwidth::mbps(12.0), Bytes::gib(1.0), 1});
  cfg.rms.push_back(dfs::RmSpec{"RM4", Bandwidth::mbps(14.0), Bytes::gib(1.0), 0});
  cfg.client_count = 1;
  cfg.latency.jitter_mean = SimTime::zero();
  cfg.layout = storage::LayoutPolicy::erasure(2, 1);
  cfg.seed = 11;

  std::vector<dfs::FileMeta> metas;
  for (std::size_t k = 1; k <= 3; ++k) {
    dfs::FileMeta f;
    f.id = k;
    f.name = "file-" + std::to_string(k);
    f.bitrate = Bandwidth::mbps(static_cast<double>(k));
    f.size = Bytes::of(static_cast<std::int64_t>(f.bitrate.bps() * 20.0));  // 20 s
    f.popularity = 1.0 / static_cast<double>(k);
    metas.push_back(std::move(f));
  }
  auto built = dfs::Cluster::build(std::move(cfg), dfs::FileDirectory{std::move(metas)});
  EXPECT_TRUE(built.is_ok());
  std::unique_ptr<dfs::Cluster> cluster = std::move(built).take();
  sim::Simulator& sim = cluster->simulator();
  obs::Recorder recorder{sim};
  cluster->attach_observability(recorder);

  EXPECT_TRUE(cluster->place_stripe(1, 2, 1, {0, 1, 2}).is_ok());
  EXPECT_TRUE(cluster->place_stripe(2, 2, 1, {1, 2, 3}).is_ok());
  EXPECT_TRUE(cluster->place_replica(2, 3).is_ok());
  EXPECT_TRUE(cluster->place_replica(3, 3).is_ok());
  cluster->start();
  sim.run();

  dfs::DfsClient& client = cluster->client(0);
  net::Network& net = cluster->network();
  client.stream_file(1);
  client.stream_file(2);
  sim.run();

  net.set_link_down(client.node_id(), cluster->rm(0).node_id());
  client.stream_file(1);
  sim.run();
  net.set_link_up(client.node_id(), cluster->rm(0).node_id());

  client.stream_file(3);
  sim.run();

  dfs::FileMeta written;
  written.id = 100;
  written.name = "written";
  written.bitrate = Bandwidth::mbps(2.0);
  written.size = Bytes::of(static_cast<std::int64_t>(written.bitrate.bps() * 30.0));
  EXPECT_TRUE(cluster->add_file(written).is_ok());
  client.write_file(100, 2);
  sim.schedule_after(SimTime::seconds(10.0), [&cluster] { cluster->fail_rm(0); });
  sim.run();
  cluster->recover_rm(0);
  sim.run();

  dfs::VfsAdapter vfs{client, cluster->mm(), cluster->directory(), sim};
  vfs.attach_cluster(cluster.get());
  std::uint64_t fd = 0;
  vfs.create("vfs-new", Bandwidth::mbps(2.0), SimTime::seconds(5.0),
             [&fd](Result<std::uint64_t> r) { fd = r.value_or(0); });
  sim.run();
  EXPECT_NE(fd, 0u);
  bool eof = false;
  while (!eof) {
    vfs.write(fd, Bytes::mib(1.0), [&eof](Result<Bytes> r) { eof = r.value().count() == 0; });
    sim.run();
  }
  vfs.release(fd);
  sim.run();

  return WriteEcRun{recorder.trace.to_json(), client.counters()};
}

TEST(GoldenTrace, WriteAndEcPathsMatchCommittedGolden) {
  const WriteEcRun run = run_write_ec_scenario();
  ASSERT_FALSE(run.trace.empty());
  // The scenario reaches every phase it is meant to cover.
  EXPECT_EQ(run.counters.ec_reads, 3u);
  EXPECT_EQ(run.counters.ec_degraded_reads, 1u);
  EXPECT_EQ(run.counters.ec_failed_reads, 0u);
  EXPECT_GE(run.counters.bid_timeouts, 1u);
  EXPECT_EQ(run.counters.writes_attempted, 1u);
  EXPECT_EQ(run.counters.writes_failed, 0u);
  EXPECT_EQ(run.counters.opens_failed, 0u);
  EXPECT_EQ(run.counters.streams_completed, 4u);
  check_against_golden(run.trace, "write_ec_trace.json");
}

TEST(GoldenTrace, WriteAndEcScenarioIsByteIdenticalOnRepeat) {
  const WriteEcRun first = run_write_ec_scenario();
  const WriteEcRun second = run_write_ec_scenario();
  expect_same_trace(second.trace, first.trace, "repeat run");
}

}  // namespace
}  // namespace sqos
