#include "probe.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {
namespace {

constexpr std::size_t kPending = std::size_t{1} << 16;  // events in the heap
constexpr int kTouchesPerEvent = 4;
constexpr std::size_t kTouchStride = 4099;  // spreads an event's touches

}  // namespace

/// A pending event: its own heap allocation, like a scheduled callback.
struct SpeedProbe::Node {
  std::size_t slot = 0;
  std::uint64_t payload[6] = {};
};

SpeedProbe::SpeedProbe(std::size_t array_mb)
    : records_(std::max<std::size_t>(1, array_mb * 1024 * 1024 / sizeof(std::uint64_t)), 1) {
  heap_.reserve(kPending + 1);
  for (std::size_t i = 0; i < kPending; ++i) {
    auto node = std::make_unique<Node>();
    node->slot = next_random() % records_.size();
    heap_.emplace_back(next_random() % 1'000'000, std::move(node));
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) { return a.first > b.first; });
}

SpeedProbe::~SpeedProbe() = default;

std::uint64_t SpeedProbe::next_random() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

double SpeedProbe::run(std::size_t events) {
  const auto later = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  const std::size_t n = records_.size();
  std::uint64_t sum = checksum_;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < events; ++e) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const std::uint64_t at = heap_.back().first;
    const std::size_t slot = heap_.back().second->slot;
    heap_.pop_back();  // frees the node
    for (int k = 0; k < kTouchesPerEvent; ++k) {
      std::uint64_t& r = records_[(slot + static_cast<std::size_t>(k) * kTouchStride) % n];
      r = r * 6364136223846793005ULL + at;
      sum += r;
    }
    auto node = std::make_unique<Node>();
    node->slot = next_random() % n;
    heap_.emplace_back(at + 1 + next_random() % 1000, std::move(node));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  checksum_ = sum;
  return seconds;
}

}  // namespace perfbench
