#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sqos::sim {
namespace {

EventId push_at(EventQueue& q, std::int64_t t_us) {
  return q.push(SimTime::micros(t_us), [] {});
}

/// Start of tick `k` in microseconds.
constexpr std::int64_t tick_us(std::int64_t k) { return k << EventQueue::kTickShift; }

/// First tick past the ring when the horizon is at tick 1 (after the first
/// tick-0 event moved into the heap).
constexpr std::int64_t kOverflowTick = 1 + EventQueue::kRingBuckets;

/// Pop everything, returning the (time, seq) commit order.
std::vector<std::pair<std::int64_t, std::uint64_t>> drain(EventQueue& q) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> order;
  Event e;
  while (q.pop(e)) order.emplace_back(e.time.as_micros(), e.seq);
  return order;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  push_at(q, 30);
  push_at(q, 10);
  push_at(q, 20);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 10);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 20);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 30);
  EXPECT_FALSE(q.pop(e));
}

TEST(EventQueue, TiesBreakByPushOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 3; ++i) {
    q.push(SimTime::micros(10), [i, &fired] { fired.push_back(i); });
  }
  Event e;
  while (q.pop(e)) e.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PopRunsTheScheduledClosure) {
  EventQueue q;
  int hits = 0;
  q.push(SimTime::micros(5), [&hits] { ++hits; });
  Event e;
  ASSERT_TRUE(q.pop(e));
  e.fn();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  const EventId first = push_at(q, 10);
  push_at(q, 20);
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 20);
  EXPECT_FALSE(q.pop(e));
}

TEST(EventQueue, CancelUnknownReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{99}));
  const EventId id = push_at(q, 10);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_FALSE(q.cancel(id));  // already popped
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = push_at(q, 10);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = push_at(q, 10);
  const EventId second = push_at(q, 20);
  EXPECT_EQ(q.next_time().as_micros(), 10);
  q.cancel(first);
  EXPECT_EQ(q.next_time().as_micros(), 20);
  q.cancel(second);
  EXPECT_EQ(q.next_time(), SimTime::max());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PeekNextTimeMatchesNextTime) {
  EventQueue q;
  EXPECT_EQ(q.peek_next_time(), SimTime::max());
  push_at(q, 40);
  push_at(q, 15);
  EXPECT_EQ(q.peek_next_time(), q.next_time());
  EXPECT_EQ(q.peek_next_time().as_micros(), 15);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  push_at(q, 1);
  const EventId second = push_at(q, 2);
  EXPECT_EQ(q.size(), 2u);
  q.cancel(second);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RecycledSlotRejectsStaleId) {
  EventQueue q;
  const EventId stale = push_at(q, 10);
  Event e;
  ASSERT_TRUE(q.pop(e));  // releases the slot
  // The next push reuses the slot with a bumped generation.
  const EventId fresh = push_at(q, 20);
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.cancel(stale));  // must not cancel the new occupant
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(fresh));
}

TEST(EventQueue, IdsAreNeverZero) {
  EventQueue q;
  for (int round = 0; round < 3; ++round) {
    const EventId id = push_at(q, round);
    EXPECT_NE(to_underlying(id), 0u);
    Event e;
    ASSERT_TRUE(q.pop(e));
  }
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    push_at(q, static_cast<std::int64_t>((i * 7919) % 1000));
  }
  Event e;
  SimTime last = SimTime::zero();
  std::size_t popped = 0;
  while (q.pop(e)) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u);
}

TEST(EventQueue, CancelStormLeavesQueueConsistent) {
  EventQueue q;
  std::vector<EventId> ids;
  for (std::int64_t i = 0; i < 200; ++i) ids.push_back(push_at(q, i));
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 100u);
  Event e;
  std::size_t popped = 0;
  SimTime last = SimTime::zero();
  while (q.pop(e)) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, 100u);
}

TEST(EventQueue, ConservationStatsBalanceAcrossTiers) {
  EventQueue q;
  const auto balanced = [&q] {
    const EventQueue::Stats& st = q.stats();
    return q.conserved() && st.pushes == st.pops + st.cancels + q.size();
  };
  // One record per tier: near heap (tick 0), ring (tick 5), overflow.
  push_at(q, 10);
  const EventId ring = push_at(q, tick_us(5));
  push_at(q, tick_us(5) + 1);
  const EventId overflow = push_at(q, tick_us(kOverflowTick + 7));
  push_at(q, tick_us(kOverflowTick + 9));
  EXPECT_TRUE(balanced());
  EXPECT_TRUE(q.cancel(ring));
  EXPECT_TRUE(q.cancel(overflow));
  EXPECT_FALSE(q.cancel(overflow));  // a failed cancel is not counted
  EXPECT_TRUE(balanced());
  Event e;
  ASSERT_TRUE(q.pop(e));  // tick 0; refills the heap from tick 5
  EXPECT_TRUE(balanced());
  EXPECT_EQ(q.stats().pushes, 5u);
  EXPECT_EQ(q.stats().pops, 1u);
  EXPECT_EQ(q.stats().cancels, 2u);
  EXPECT_EQ(drain(q).size(), 2u);
  EXPECT_TRUE(balanced());
  EXPECT_EQ(q.stats().pops, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventExactlyAtATickBoundaryBelongsToTheNextTick) {
  EventQueue q;
  push_at(q, 0);                // tick 0: the heap; horizon moves to tick 1
  push_at(q, tick_us(1));       // first instant of tick 1: the ring
  push_at(q, tick_us(1) - 1);   // last instant of tick 0: the heap
  push_at(q, tick_us(1));       // tie with the boundary event, later seq
  push_at(q, tick_us(2) - 1);   // last instant of tick 1
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], (std::pair<std::int64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(order[1], (std::pair<std::int64_t, std::uint64_t>{tick_us(1) - 1, 2}));
  EXPECT_EQ(order[2], (std::pair<std::int64_t, std::uint64_t>{tick_us(1), 1}));
  EXPECT_EQ(order[3], (std::pair<std::int64_t, std::uint64_t>{tick_us(1), 3}));
  EXPECT_EQ(order[4], (std::pair<std::int64_t, std::uint64_t>{tick_us(2) - 1, 4}));
}

TEST(EventQueue, PushBelowHorizonAfterRefillPopsFirst) {
  EventQueue q;
  // A far push into an empty queue refills the heap at once, moving the
  // horizon past tick 40; next_time() sees it without a pop.
  push_at(q, tick_us(40) + 5);
  EXPECT_EQ(q.next_time().as_micros(), tick_us(40) + 5);
  // Below the horizon now, so these go straight to the heap — including
  // one earlier than the refilled event and one in its own tick.
  push_at(q, tick_us(3));
  push_at(q, tick_us(40) + 1);
  push_at(q, tick_us(41));  // at the horizon: the ring
  EXPECT_EQ(q.next_time().as_micros(), tick_us(3));
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].first, tick_us(3));
  EXPECT_EQ(order[1].first, tick_us(40) + 1);
  EXPECT_EQ(order[2].first, tick_us(40) + 5);
  EXPECT_EQ(order[3].first, tick_us(41));
}

TEST(EventQueue, CancelOrphansRingAndOverflowRecords) {
  EventQueue q;
  push_at(q, 1);
  std::vector<EventId> ring;
  for (std::int64_t k = 2; k < 6; ++k) ring.push_back(push_at(q, tick_us(k)));
  const EventId overflow = push_at(q, tick_us(kOverflowTick + 3));
  const EventId last = push_at(q, tick_us(kOverflowTick + 4));
  for (const EventId id : ring) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.cancel(overflow));
  EXPECT_EQ(q.size(), 2u);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 1);
  // The refill skipped four dead buckets and a dead overflow top.
  EXPECT_EQ(q.next_time().as_micros(), tick_us(kOverflowTick + 4));
  EXPECT_TRUE(q.cancel(last));
  EXPECT_EQ(q.next_time(), SimTime::max());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop(e));
  EXPECT_TRUE(q.conserved());
}

TEST(EventQueue, OverflowAndRingRecordsOfOneTickMergeInSeqOrder) {
  EventQueue q;
  push_at(q, 0);
  // Past the ring when pushed. Once the horizon has moved, later pushes of
  // the same tick land in the ring, so the refill must take both tiers.
  push_at(q, tick_us(kOverflowTick + 10));  // seq 1: overflow
  push_at(q, tick_us(600));                 // seq 2
  push_at(q, tick_us(700));                 // seq 3
  Event e;
  ASSERT_TRUE(q.pop(e));  // tick 0
  ASSERT_TRUE(q.pop(e));  // tick 600
  EXPECT_EQ(e.time.as_micros(), tick_us(600));
  // The horizon is now 701, so the ring reaches tick 1724.
  push_at(q, tick_us(kOverflowTick + 20));  // seq 4: ring
  push_at(q, tick_us(kOverflowTick + 10));  // seq 5: ring, the overflow tick
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].first, tick_us(700));
  EXPECT_EQ(order[1], (std::pair<std::int64_t, std::uint64_t>{tick_us(kOverflowTick + 10), 1}));
  EXPECT_EQ(order[2], (std::pair<std::int64_t, std::uint64_t>{tick_us(kOverflowTick + 10), 5}));
  EXPECT_EQ(order[3], (std::pair<std::int64_t, std::uint64_t>{tick_us(kOverflowTick + 20), 4}));
}

TEST(EventQueue, RingScanWrapsToTheLowBitsOfItsStartWord) {
  EventQueue q;
  push_at(q, 0);
  push_at(q, tick_us(9));
  Event e;
  ASSERT_TRUE(q.pop(e));  // tick 0; the refill moves the horizon to tick 10
  // Bucket 1030 % kRingBuckets = 6 sits below the scan start (bucket 10)
  // in the same bitmap word: the scan must wrap around to find it.
  const std::int64_t far_tick = 10 + EventQueue::kRingBuckets - 4;
  push_at(q, tick_us(far_tick));
  ASSERT_TRUE(q.pop(e));  // tick 9
  EXPECT_EQ(q.next_time().as_micros(), tick_us(far_tick));
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), tick_us(far_tick));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace sqos::sim
