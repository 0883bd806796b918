// Pending-event priority queue with generation-stamped O(1) cancellation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "util/domain.hpp"

namespace sqos::sim {

/// Two-tier queue ordered on (time, seq) over lightweight 24-byte records;
/// callbacks live in a recycled slot vector addressed by (slot, generation)
/// pairs.
///
/// Time is cut into ticks of 2^kTickShift microseconds (~1.05 s). The near
/// tier is a binary heap holding every record whose tick is below a monotone
/// `horizon_`. The far tier holds every record at or beyond it: a ring of
/// kRingBuckets per-tick buckets (singly linked lists threaded through one
/// recycled node pool, with an occupancy bitmap) for ticks inside
/// [horizon_, horizon_ + kRingBuckets), and an overflow min-heap for ticks
/// past the ring. Every record the heap holds is therefore earlier than
/// every far record, so pop order is exactly (time, seq), and a far record
/// is touched once — when its bucket drains — instead of sifting the levels
/// of one big heap at every push and pop. A ring push needs a tick below
/// horizon_ + kRingBuckets and horizon_ only grows, so buckets never alias.
///
/// The queue settles eagerly after every push, pop and cancel: dead records
/// are dropped off the heap front, and an empty heap is refilled from the
/// next occupied far tick (the first ring bucket at or after horizon_, or
/// the overflow top, whichever is earlier), which moves horizon_ past it.
/// The heap front is thus always the earliest live event, and next_time()
/// is O(1) and const.
///
/// Cancellation is O(1): it bumps the slot's generation, instantly orphaning
/// the record wherever it sits, and destroys the callback (releasing its
/// captures) right away. Orphaned records are skipped when they reach the
/// heap front or when their bucket drains.
///
/// Push, pop and cancel do not allocate on the steady path: slots (and the
/// inline storage of their InlineFn callbacks) and ring nodes are reused via
/// free lists, and the slot, node and heap vectors only grow to the
/// high-water mark of pending events, so their growth is amortised.
class SQOS_DOMAIN(owner) EventQueue {
 public:
  /// log2 of the tick width in microseconds (2^20 us ~ 1.05 s).
  static constexpr unsigned kTickShift = 20;
  /// Per-tick buckets in the ring (~18 simulated minutes at kTickShift 20).
  static constexpr std::uint32_t kRingBuckets = 1024;

  /// Records the heap, the node pool and the overflow heap reserve up front
  /// (96 KB each). The heap holds about one tick of events, which this
  /// covers on the densest benchmark workload, so it does not reallocate
  /// while events run; the other two start doubling from here instead of
  /// from one record.
  static constexpr std::size_t kInitialRecords = 4096;

  EventQueue();

  /// Event counts since construction. Every push is popped, cancelled or
  /// still pending: see conserved().
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t cancels = 0;
  };

  /// Schedule `fn` at time `t`; returns the handle used for cancel().
  EventId push(SimTime t, EventFn fn);

  /// Make room for `n` more pending events in one step: the slot vector and
  /// the ring's node pool grow here, once, instead of doubling (and moving
  /// every slot's callback) while a large batch is pushed. Records headed for
  /// the heap or the overflow heap are not reserved.
  void reserve(std::size_t n);

  /// Pop the earliest non-cancelled event; returns false when empty.
  [[nodiscard]] bool pop(Event& out);

  /// Mark an event cancelled; returns false if the id is not pending.
  bool cancel(EventId id);

  /// Earliest pending (non-cancelled) time; SimTime::max() when empty. O(1).
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? SimTime::max() : heap_.front().time;
  }

  /// Alias of next_time() kept for observers (invariant audits). O(1), const.
  [[nodiscard]] SimTime peek_next_time() const { return next_time(); }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Event-count conservation: pushes == pops + cancels + size(). The chaos
  /// fuzzer asserts it after every run.
  [[nodiscard]] bool conserved() const {
    return stats_.pushes == stats_.pops + stats_.cancels + live_;
  }

 private:
  struct Record {
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;

    [[nodiscard]] friend bool operator>(const Record& a, const Record& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A ring-bucket list node: a Record without its seq, which the slot
  /// keeps, so a node is no bigger than a heap record. `next` links the
  /// bucket's list or, for a recycled node, the free list.
  struct Node {
    SimTime time;
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;
  };

  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;  // fits the padding after fn: no size cost
    std::uint32_t gen = 1;
    bool live = false;
  };

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::uint64_t kNoTick = ~std::uint64_t{0};
  static constexpr std::uint32_t kRingMask = kRingBuckets - 1;
  static constexpr std::uint32_t kRingWords = kRingBuckets / 64;
  static_assert((kRingBuckets & kRingMask) == 0 && kRingWords > 0,
                "the ring must be a power of two of at least 64 buckets");

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) | slot};
  }

  /// Tick of a time; monotone in t (times before zero share tick 0).
  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    const std::int64_t us = t.as_micros();
    return us <= 0 ? 0 : static_cast<std::uint64_t>(us) >> kTickShift;
  }

  [[nodiscard]] bool is_live(const Record& r) const {
    const Slot& slot = slots_[r.slot];
    return slot.live && slot.gen == r.gen;
  }

  /// File a record at or beyond horizon_ into the ring or the overflow heap.
  void push_far(const Record& rec, std::uint64_t tick);

  /// Move the live records of ring bucket `bucket` into the heap and its
  /// nodes to the free list.
  void drain_bucket(std::uint32_t bucket);

  /// Drop dead records off the heap front; refill an empty heap from the far
  /// tier. Restores "the heap front is the earliest live event".
  void settle();

  /// Move the next occupied far tick into the (empty) heap, repeating while
  /// the moved records were all dead.
  void refill();

  /// First occupied ring tick at or after horizon_; kNoTick if none.
  [[nodiscard]] std::uint64_t next_ring_tick() const;

  /// Return a slot to the free list and invalidate outstanding ids/records.
  void release_slot(std::uint32_t index);

  [[nodiscard]] static constexpr std::array<std::uint32_t, kRingBuckets> make_empty_ring() {
    std::array<std::uint32_t, kRingBuckets> heads{};
    for (std::uint32_t& h : heads) h = kNil;
    return heads;
  }

  std::vector<Record> heap_;      // near tier: every record with tick < horizon_
  std::vector<Record> overflow_;  // far tier past the ring (min-heap)
  std::array<std::uint32_t, kRingBuckets> ring_head_ = make_empty_ring();
  std::array<std::uint64_t, kRingWords> ring_occ_{};
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNil;
  std::size_t ring_records_ = 0;  // nodes linked into ring buckets, live or dead
  std::uint64_t horizon_ = 0;     // first tick the heap does not cover
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace sqos::sim
