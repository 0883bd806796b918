// The benchmark's three workloads and the measurement loop around them.
//
//   scale_soft    2048 RMs, 10^5 users, soft mode, (1,0,0), Rep(1,3), 600 s
//   paper_tables  every cell of paper Tables I-VII on the 16-RM topology
//   ingest_ec     256 RMs, EC(4,2) reads + fresh-file writes, crashes, a
//                 drain and two QoS tenants under the AIMD controller
//
// Every workload is open loop: arrivals come from the seeded pattern and
// are dispatched at their simulated time whatever the state of earlier
// requests, so the generator is never late.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // length of the timed phase
  bool trace = false;      // traced run: per-layer metrics instead of end to end
  std::string spans_path;  // traced run: where the span file goes ("" = nowhere)
};

struct Outcome {
  std::vector<std::string> errors;  // failed correctness checks (empty = correct)
  std::uint64_t attempted = 0;      // simulated client operations in the timed runs
  std::uint64_t failed = 0;         // of those, ended in an error the workload forbids
  MetricSet metrics;
};

/// Run one workload end to end: a checked warm-up run, timed runs for
/// `options.seconds`, extra set-ups, the differential check and, with
/// `options.trace`, one traced run. Throws std::invalid_argument for an
/// unknown workload and std::runtime_error when the simulator cannot be set
/// up at all.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
