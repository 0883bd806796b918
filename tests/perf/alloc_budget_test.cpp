// Allocation budgets of the hot paths.
//
// This executable replaces the global operator new with a counting one, so
// it is its own test binary: no other test pays for the counter. The main
// test builds a fixed small soft-mode cluster (64 RMs, Rep(1,3), policy
// (1,0,0), the scale cell's shape in miniature), runs the arrival window and
// the drain, and bounds the heap allocations of that run phase per streamed
// read. The others hold that network traffic costs no memory per message
// and that filing an arrival pattern reserves the event queue once. The
// counts are a property of the code and the standard library, not of the
// machine or its timing, so a hot-path regression fails deterministically.
// The bounds hold in Release and Debug builds alike.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/qos_types.hpp"
#include "core/replication_config.hpp"
#include "dfs/cluster.hpp"
#include "exp/paper_setup.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "testing/test_cluster.hpp"
#include "util/rng.hpp"
#include "workload/access_pattern.hpp"
#include "workload/placement.hpp"
#include "workload/request_scheduler.hpp"
#include "workload/video_catalog.hpp"

namespace {

std::uint64_t g_allocations = 0;  // the kernel is single-threaded

void* counted(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return or_throw(counted(size)); }
void* operator new[](std::size_t size) { return or_throw(counted(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace sqos {
namespace {

/// Run-phase heap allocations per streamed read (5.4 when this bound was
/// set). What still allocates per read: the MM's holder list; each bid's
/// 56-byte reply closure (three per read under Rep(1,3)), which spills
/// InlineFn's 48-byte buffer; and the first reserve of a fresh negotiation
/// record's bid vector, before the client's record pool is warm. The data
/// request, the RM's transfer and the completion are pooled or fit inline.
/// The remainder is amortised pool growth and replication rounds.
constexpr double kAllocsPerReadBudget = 6.0;

TEST(AllocBudget, StreamedReadStaysWithinBudget) {
  Rng root{1};
  Rng catalog_rng = root.fork("catalog");
  dfs::FileDirectory directory =
      workload::generate_catalog(exp::paper_catalog_params(), catalog_rng);

  dfs::ClusterConfig config = exp::scaled_cluster_config(64);
  config.mode = core::AllocationMode::kSoft;
  config.policy = core::PolicyWeights::p100();
  config.replication = core::ReplicationConfig::rep(1, 3);
  config.seed = root.fork("cluster").seed();
  auto built = dfs::Cluster::build(std::move(config), std::move(directory));
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  std::unique_ptr<dfs::Cluster> cluster = std::move(built).take();
  Rng placement_rng = root.fork("placement");
  ASSERT_TRUE(workload::place_static_replicas(*cluster, exp::paper_placement_params(),
                                              placement_rng)
                  .is_ok());
  cluster->start();

  workload::PatternParams pattern_params = exp::paper_pattern_params(20000);
  pattern_params.duration = SimTime::seconds(300.0);
  Rng pattern_rng = root.fork("pattern");
  workload::RequestScheduler scheduler{
      *cluster, workload::generate_pattern(cluster->directory(), pattern_params, pattern_rng)};
  scheduler.schedule();

  const std::uint64_t before = g_allocations;
  cluster->simulator().run();
  const std::uint64_t run_allocs = g_allocations - before;

  ASSERT_TRUE(scheduler.drained());
  ASSERT_GT(scheduler.dispatched(), 1000u);
  EXPECT_EQ(scheduler.failed(), 0u);  // soft mode refuses nothing
  const double per_read =
      static_cast<double>(run_allocs) / static_cast<double>(scheduler.dispatched());
  RecordProperty("allocs_per_read", std::to_string(per_read));
  EXPECT_LE(per_read, kAllocsPerReadBudget)
      << run_allocs << " allocations over " << scheduler.dispatched() << " streamed reads";
}

TEST(AllocBudget, SecondWaveOfSendsDoesNotAllocate) {
  constexpr std::uint64_t kWave = 10'000;
  sim::Simulator sim;
  net::LatencyModel::Params params;
  params.jitter_mean = SimTime::zero();
  net::Network net{sim, net::LatencyModel{params, Rng{1}}};
  const net::NodeId a = net.register_node("a");
  const net::NodeId b = net.register_node("b");
  std::uint64_t delivered = 0;
  const auto wave = [&] {
    for (std::uint64_t i = 0; i < kWave; ++i) {
      net.send(a, b, net::MessageKind::kCfp, Bytes::of(64), [&delivered] { ++delivered; });
    }
    sim.run();
  };

  wave();  // grows the event queue to the wave's size
  const std::uint64_t before = g_allocations;
  wave();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(delivered, 2 * kWave);
  EXPECT_EQ(net.node_sent(a).total_messages, 2 * kWave);
  EXPECT_EQ(net.node_received(b).total_bytes, 2 * kWave * 64);
}

/// Heap allocations RequestScheduler::schedule makes filing `arrivals`
/// requests, spread evenly over a 300 s window, into a started cluster.
std::uint64_t schedule_allocations(std::size_t arrivals) {
  std::unique_ptr<dfs::Cluster> cluster = testing::make_small_cluster();
  cluster->start();
  std::vector<workload::AccessEvent> pattern;
  pattern.reserve(arrivals);
  for (std::size_t i = 0; i < arrivals; ++i) {
    pattern.push_back(workload::AccessEvent{
        SimTime::micros(static_cast<std::int64_t>(i * 300'000'000 / arrivals)),
        static_cast<std::uint32_t>(i), static_cast<dfs::FileId>(1 + i % 4)});
  }
  workload::RequestScheduler scheduler{*cluster, std::move(pattern)};
  const std::uint64_t before = g_allocations;
  scheduler.schedule();
  return g_allocations - before;
}

TEST(AllocBudget, ScheduleAllocationsDoNotGrowWithArrivals) {
  // Both sizes exceed the queue's up-front record reserve, so each must grow
  // the slot vector and the ring's node pool: one allocation each when the
  // schedule reserves, one per power of two when they double.
  static_assert(sim::EventQueue::kInitialRecords < 8'192);
  const std::uint64_t small = schedule_allocations(8'192);
  const std::uint64_t large = schedule_allocations(65'536);
  EXPECT_EQ(large, small);
  EXPECT_LE(small, 2u);
}

}  // namespace
}  // namespace sqos
