// Determinism regression gate: fixed-seed runs must reproduce the exact
// numbers the pre-optimization kernel produced. The golden values below were
// captured on the event-queue/std::function implementation this PR replaced;
// any drift means an optimization changed simulation behaviour, not just
// speed. Refresh procedure: docs/PERFORMANCE.md §"Updating baselines".
#include <gtest/gtest.h>

#include "check/op_fuzzer.hpp"
#include "exp/experiment.hpp"
#include "storage/stripe_layout.hpp"

namespace sqos {
namespace {

TEST(DeterminismGolden, FuzzRunReproducesEventCount) {
  // One pinned input per corpus the CI fuzz jobs run: replication, EC(4,2)
  // striped reads on 6 RMs, and a 3-tenant population. Each exercises the
  // client's read, write and explicit-session negotiations under faults.
  struct Pinned {
    std::uint64_t seed;
    std::size_t rm_count;
    storage::LayoutPolicy layout;
    std::size_t tenant_count;
    std::uint64_t events;
  };
  const Pinned inputs[] = {
      {101, 4, storage::LayoutPolicy{}, 0, 13059u},
      {404, 6, storage::LayoutPolicy::erasure(4, 2), 0, 49279u},
      {505, 4, storage::LayoutPolicy{}, 3, 12165u},
  };
  for (const Pinned& in : inputs) {
    check::FuzzOptions options;
    options.seed = in.seed;
    options.op_count = 2000;
    options.audit_every = 4;
    options.with_faults = true;
    options.rm_count = in.rm_count;
    options.layout = in.layout;
    options.tenant_count = in.tenant_count;
    const check::FuzzResult result = check::OpFuzzer{options}.run();
    EXPECT_EQ(result.violations.size(), 0u) << "seed " << in.seed;
    EXPECT_EQ(result.executed_events, in.events) << "seed " << in.seed;
  }
}

TEST(DeterminismGolden, SoftExperimentReproducesTableCells) {
  exp::ExperimentParams params;
  params.users = 64;
  params.mode = core::AllocationMode::kSoft;
  params.policy = core::PolicyWeights::p111();
  params.seed = 7;
  const exp::ExperimentResult result = exp::run_experiment(params);
  EXPECT_EQ(result.requests, 1497u);
  EXPECT_EQ(result.completed, 1497u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_DOUBLE_EQ(result.overallocate_ratio, 0.018420089558352986);
  EXPECT_EQ(result.control_messages, 15002u);
  EXPECT_EQ(result.control_bytes, 1511584u);
}

TEST(DeterminismGolden, SameSeedSameResultAcrossRepeatedRuns) {
  exp::ExperimentParams params;
  params.users = 64;
  params.mode = core::AllocationMode::kSoft;
  params.policy = core::PolicyWeights::p111();
  params.seed = 7;
  const exp::ExperimentResult a = exp::run_experiment(params);
  const exp::ExperimentResult b = exp::run_experiment(params);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_DOUBLE_EQ(a.overallocate_ratio, b.overallocate_ratio);
}

}  // namespace
}  // namespace sqos
