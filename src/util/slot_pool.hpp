// SlotPool — a vector of recycled records addressed by a 4-byte index.
//
// Event closures must fit sim::InlineFn's 48-byte buffer to stay off the
// heap, so per-operation state that outgrows a closure lives in a pool and
// the closure captures only its index. Released records go on a free list
// and keep whatever capacity their value owns, so a warm pool allocates
// nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace sqos::util {

template <typename T>
class SlotPool {
 public:
  /// Index of a free record: a recycled one holds whatever its previous
  /// owner left in it. Invalidates references to other records.
  [[nodiscard]] std::uint32_t acquire() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }

  void release(std::uint32_t index) {
    assert(index < items_.size());
    free_.push_back(index);
  }

  [[nodiscard]] T& operator[](std::uint32_t index) {
    assert(index < items_.size());
    return items_[index];
  }

  /// Records ever created, free or not.
  [[nodiscard]] std::size_t capacity() const { return items_.size(); }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sqos::util
