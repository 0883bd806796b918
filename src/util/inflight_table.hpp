// InFlightTable — O(1) records keyed by the sequential ids the table issues.
//
// The DFS client keys every in-flight negotiation by the open id it issues
// (1, 2, 3, … per client; the ids double as VFS fds and RM session keys).
// Each delivered reply, bid, completion and deadline looks its record up,
// and late ones must find nothing. At the 2048-RM scale cell a client
// carries up to 148 negotiations at once — too many for a linear scan
// (util/small_map.hpp).
//
// Shape: a power-of-two ring of 4-byte record indices, addressed by
// `id & mask`, pointing into a SlotPool of records (util/slot_pool.hpp), so
// a closed record keeps its value's capacity for the next id. No two live
// ids share a ring position: when a new id lands on an occupied one (the
// live-id window outgrew the ring), the ring doubles until every live id
// has its own. A lookup compares the record's id, so a closed (stale) id is
// never found, even after its record and ring position are reused.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/slot_pool.hpp"

namespace sqos::util {

template <typename V>
class InFlightTable {
 public:
  /// Issue the next id (the first is 1) and attach a record to it. A
  /// recycled record holds whatever its previous owner left in it; the
  /// caller resets what it uses. Invalidates pointers and references to
  /// other records.
  [[nodiscard]] std::uint64_t open() {
    const std::uint64_t id = next_id_++;
    const std::uint32_t index = records_.acquire();
    while (ring_.empty() || ring_[id & (ring_.size() - 1)] != kNone) grow();
    ring_[id & (ring_.size() - 1)] = index;
    records_[index].id = id;
    ++live_;
    return id;
  }

  /// The live record of `id`, or null if `id` was never issued or is closed.
  [[nodiscard]] V* find(std::uint64_t id) {
    if (ring_.empty()) return nullptr;
    const std::uint32_t index = ring_[id & (ring_.size() - 1)];
    if (index == kNone || records_[index].id != id) return nullptr;
    return &records_[index].value;
  }

  [[nodiscard]] V& at(std::uint64_t id) {
    V* value = find(id);
    assert(value != nullptr);
    return *value;
  }

  /// Retire a live id; its record returns to the pool with its contents.
  void close(std::uint64_t id) {
    assert(find(id) != nullptr);
    std::uint32_t& position = ring_[id & (ring_.size() - 1)];
    records_[position].id = 0;
    records_.release(position);
    position = kNone;
    --live_;
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t ring_size() const { return ring_.size(); }

 private:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMinRing = 8;

  struct Record {
    std::uint64_t id = 0;  // 0 while the record is free
    V value{};
  };

  /// Double the ring until every live id has a position of its own.
  void grow() {
    std::size_t size = ring_.empty() ? kMinRing : ring_.size() * 2;
    while (!place_live(size)) size *= 2;
  }

  bool place_live(std::size_t size) {
    ring_.assign(size, kNone);
    for (std::uint32_t i = 0; i < records_.capacity(); ++i) {
      const std::uint64_t id = records_[i].id;
      if (id == 0) continue;
      std::uint32_t& position = ring_[id & (size - 1)];
      if (position != kNone) return false;
      position = i;
    }
    return true;
  }

  std::vector<std::uint32_t> ring_;
  SlotPool<Record> records_;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace sqos::util
