// Machine-speed probe for calibrating host times.
//
// On a shared host the same simulator pass runs at speeds that drift by tens
// of percent within seconds, as other tenants contend for the cores, caches
// and memory. The probe is a fixed piece of work of the same kind as a
// simulator pass — a binary-heap event loop that allocates one node per event
// and updates random records in a large array — owned by the benchmark, so no
// change to the program changes it. Short probe slices run between the parts
// of each timed pass; their time per event is the machine's speed during the
// pass, and a pass time scaled by it is the pass time at a fixed speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// `array_mb` MiB of records and a heap of pending events, both built here
  /// (untimed).
  explicit SpeedProbe(std::size_t array_mb);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Run `events` more events; returns their host seconds. The event stream
  /// continues from the previous call, so slices of any size add up to one
  /// long run.
  double run(std::size_t events);

  /// Sum of every record update so far (keeps the work observable).
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  struct Node;
  using Entry = std::pair<std::uint64_t, std::unique_ptr<Node>>;

  std::vector<std::uint64_t> records_;
  std::vector<Entry> heap_;
  std::uint64_t rng_ = 88172645463325252ULL;
  std::uint64_t checksum_ = 0;

  std::uint64_t next_random();
};

/// Reference probe speed. Calibrated times are host times scaled by this over
/// the probe's nanoseconds per event measured during them. Probe slices
/// inside the workloads' passes ran at 800-1100 ns per event on the 4-vCPU
/// machine the benchmark was written on, so calibrated seconds stay close to
/// host seconds there.
inline constexpr double kProbeReferenceNsPerEvent = 1000.0;

}  // namespace perfbench
