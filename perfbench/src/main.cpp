// sqos_perfbench — end-to-end benchmark of the storage-QoS simulator.
//
//   sqos_perfbench --workload <scale_soft|paper_tables|ingest_ec> --seed <n>
//                  --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints each measured metric by name with its unit (a traced run measures
// both groups), then, as the last line, one JSON object {"correct",
// "attempted", "failed", "metrics"}: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1 (perfbench/README.md explains both).
// Exit code 0 when the run completed (the "correct" field carries the
// checks), 1 on a set-up error, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "sqos_perfbench: %s\nusage: sqos_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') usage((std::string{"bad value for "} + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      options.trace = parse_u64(value, "--trace") != 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  // ingest_ec's crash script makes the MM log every re-registration; the
  // benchmark reports its own findings, so only errors are logged.
  sqos::Log::set_level(sqos::LogLevel::kError);

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sqos_perfbench: %s\n", e.what());
    return 1;
  }

  const perfbench::Group group =
      options.trace ? perfbench::Group::kPerLayer : perfbench::Group::kEndToEnd;
  for (const std::string& name : outcome.metrics.missing(group)) {
    outcome.errors.push_back("metric not measured: " + name);
  }
  for (const std::string& e : outcome.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("workload %s, seed %llu: %llu ops attempted, %llu failed, checks %s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.errors.empty() ? "passed" : "FAILED");
  // Every metric measured, both groups; the result line carries `group`.
  for (const perfbench::MetricDef& d : perfbench::metric_catalog()) {
    if (!outcome.metrics.has(d.name)) continue;
    std::printf("  %-10s %-30s %-20s %s\n",
                d.group == perfbench::Group::kEndToEnd ? "end-to-end" : "per-layer",
                std::string{d.name}.c_str(),
                perfbench::format_number(outcome.metrics.get(d.name)).c_str(),
                std::string{d.unit}.c_str());
  }
  std::printf("%s\n", perfbench::result_line(outcome.errors.empty(), outcome.attempted,
                                             outcome.failed, outcome.metrics, group)
                          .c_str());
  return 0;
}
