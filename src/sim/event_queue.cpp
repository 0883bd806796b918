#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

namespace sqos::sim {

EventQueue::EventQueue() {
  heap_.reserve(kInitialRecords);
  overflow_.reserve(kInitialRecords);
  nodes_.reserve(kInitialRecords);
}

void EventQueue::reserve(std::size_t n) {
  // Every slot is live or free, every node linked or free, and pushes reuse
  // free ones first: n pushes need at most live_ + n slots and
  // ring_records_ + n nodes. Rounding up to a power of two lands on the
  // capacity push_back's doubling would have reached, so the pushes that
  // follow the batch keep their amortised headroom: an exact reserve would
  // make the first of them move every slot.
  slots_.reserve(std::bit_ceil(live_ + n));
  nodes_.reserve(std::bit_ceil(ring_records_ + n));
}

EventId EventQueue::push(SimTime t, EventFn fn) {
  std::uint32_t index = 0;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.seq = next_seq_++;
  slot.live = true;

  const Record rec{t, slot.seq, index, slot.gen};
  ++live_;
  ++stats_.pushes;
  const std::uint64_t tick = tick_of(t);
  if (tick < horizon_) {
    // The heap front was live before, so it still is: nothing to settle.
    heap_.push_back(rec);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  } else {
    push_far(rec, tick);
    if (heap_.empty()) refill();
  }
  return encode(index, slot.gen);
}

void EventQueue::push_far(const Record& rec, std::uint64_t tick) {
  if (tick - horizon_ >= kRingBuckets) {
    overflow_.push_back(rec);
    std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
    return;
  }
  const auto bucket = static_cast<std::uint32_t>(tick) & kRingMask;
  const Node node{rec.time, rec.slot, rec.gen, ring_head_[bucket]};
  std::uint32_t n = free_node_;
  if (n != kNil) {
    free_node_ = nodes_[n].next;
    nodes_[n] = node;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(node);
  }
  ring_head_[bucket] = n;
  ring_occ_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  ++ring_records_;
}

std::uint64_t EventQueue::next_ring_tick() const {
  const auto start = static_cast<std::uint32_t>(horizon_) & kRingMask;
  std::uint32_t word = start >> 6;
  std::uint64_t bits = ring_occ_[word] & (~std::uint64_t{0} << (start & 63));
  // kRingWords + 1 probes: the last one revisits the start word's low bits,
  // which hold the ticks furthest ahead.
  for (std::uint32_t probe = 0; probe <= kRingWords; ++probe) {
    if (bits != 0) {
      const auto bucket = (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
      return horizon_ + ((bucket - start) & kRingMask);
    }
    word = (word + 1) % kRingWords;
    bits = ring_occ_[word];
  }
  return kNoTick;
}

void EventQueue::refill() {
  assert(heap_.empty());
  while (heap_.empty() && (ring_records_ > 0 || !overflow_.empty())) {
    while (!overflow_.empty() && !is_live(overflow_.front())) {
      std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      overflow_.pop_back();
    }
    const std::uint64_t ring_tick = ring_records_ > 0 ? next_ring_tick() : kNoTick;
    const std::uint64_t tick =
        overflow_.empty() ? ring_tick : std::min(ring_tick, tick_of(overflow_.front().time));
    if (tick == kNoTick) return;  // only dead overflow records were left

    // Ring ticks lie in [horizon_, horizon_ + kRingBuckets), so the bucket
    // of an overflow tick below the ring's first one is empty.
    if (tick == ring_tick) drain_bucket(static_cast<std::uint32_t>(tick) & kRingMask);
    while (!overflow_.empty() && tick_of(overflow_.front().time) == tick) {
      if (is_live(overflow_.front())) heap_.push_back(overflow_.front());
      std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      overflow_.pop_back();
    }
    horizon_ = tick + 1;
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void EventQueue::drain_bucket(std::uint32_t bucket) {
  std::uint32_t n = ring_head_[bucket];
  ring_head_[bucket] = kNil;
  ring_occ_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  while (n != kNil) {
    Node& node = nodes_[n];
    const Slot& slot = slots_[node.slot];
    if (slot.live && slot.gen == node.gen) {
      heap_.push_back(Record{node.time, slot.seq, node.slot, node.gen});
    }
    const std::uint32_t next = node.next;
    node.next = free_node_;
    free_node_ = n;
    n = next;
    --ring_records_;
  }
}

void EventQueue::settle() {
  while (!heap_.empty() && !is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  if (heap_.empty()) refill();
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.live = false;
  ++slot.gen;  // orphans every outstanding id and record for this slot
  if (slot.gen == 0) ++slot.gen;  // generation 0 is reserved for "never issued"
  free_slots_.push_back(index);
}

bool EventQueue::pop(Event& out) {
  if (heap_.empty()) return false;  // settled: an empty heap means an empty queue
  const Record top = heap_.front();
  Slot& slot = slots_[top.slot];
  assert(slot.live && slot.gen == top.gen && "heap front must be live");
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();

  out.time = top.time;
  out.seq = top.seq;
  out.id = encode(top.slot, top.gen);
  out.fn = std::move(slot.fn);
  release_slot(top.slot);
  --live_;
  ++stats_.pops;
  settle();
  return true;
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t raw = to_underlying(id);
  const auto index = static_cast<std::uint32_t>(raw & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(raw >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || slot.gen != gen) return false;
  release_slot(index);
  --live_;
  ++stats_.cancels;
  settle();
  return true;
}

}  // namespace sqos::sim
