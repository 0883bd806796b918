// Allocation budget of the streamed-read hot path.
//
// This executable replaces the global operator new with a counting one, so
// it is its own test binary: no other test pays for the counter. It builds a
// fixed small soft-mode cluster (64 RMs, Rep(1,3), policy (1,0,0), the
// scale cell's shape in miniature), runs the arrival window and the drain,
// and bounds the heap allocations of that run phase per streamed read. The
// count is a property of the code and the standard library, not of the
// machine or its timing, so a hot-path regression fails deterministically.
// The bound holds in Release and Debug builds alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/qos_types.hpp"
#include "core/replication_config.hpp"
#include "dfs/cluster.hpp"
#include "exp/paper_setup.hpp"
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

}  // namespace
}  // namespace sqos
