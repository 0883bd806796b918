// Reference-model fuzzing: drive a component with long random operation
// sequences and compare against an obviously-correct (slow) model after
// every step. These catch state-machine bugs that example-based tests miss.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "core/history_window.hpp"
#include "sim/event_queue.hpp"
#include "storage/bandwidth_ledger.hpp"
#include "storage/flow.hpp"
#include "util/inflight_table.hpp"
#include "util/rng.hpp"

namespace sqos {
namespace {

// ------------------------------------------------------------- FlowTable --

TEST(ReferenceModel, FlowTableMatchesMapModel) {
  storage::FlowTable table;
  std::map<std::uint64_t, double> model;  // id -> rate bps
  std::vector<storage::FlowId> live;
  Rng rng{2024};

  for (int step = 0; step < 20'000; ++step) {
    const bool add = live.empty() || rng.next_double() < 0.55;
    if (add) {
      const double rate = rng.uniform(0.0, 3e6);
      const storage::FlowId id = table.add(storage::FlowKind::kRead, rng.next_below(100),
                                           Bandwidth::bytes_per_sec(rate), SimTime::zero());
      model.emplace(storage::to_underlying(id), rate);
      live.push_back(id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      const storage::FlowId id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(table.remove(id));
      model.erase(storage::to_underlying(id));
    }
    ASSERT_EQ(table.size(), model.size());
    double expected = 0.0;
    for (const auto& [_, r] : model) expected += r;
    // The table keeps a running total; allow accumulated float drift.
    ASSERT_NEAR(table.total_rate().bps(), expected, 1e-3 + expected * 1e-9) << "step " << step;
  }
}

// --------------------------------------------------------- InFlightTable --

TEST(ReferenceModel, InFlightTableMatchesMapModel) {
  // The record mimics a negotiation: its owner id and a bid list whose
  // capacity survives recycling.
  struct Record {
    std::uint64_t owner = 0;
    std::vector<int> bids;
  };
  util::InFlightTable<Record> table;
  std::map<std::uint64_t, std::size_t> model;  // live id -> bids accepted
  std::uint64_t issued = 0;
  std::uint64_t late_dropped = 0;
  std::size_t ring_outgrown = 0;  // opens whose window was wider than the ring
  std::size_t ring_before = 0;
  Rng rng{11};

  const auto begin = [&] {
    ring_before = table.ring_size();
    const std::uint64_t id = table.open();
    ASSERT_EQ(id, ++issued);  // ids are exactly 1, 2, 3, ...
    Record& r = table.at(id);
    r.owner = id;
    r.bids.clear();
    model.emplace(id, 0);
  };
  const auto finish = [&](std::uint64_t id) {
    ASSERT_NE(table.find(id), nullptr);
    table.close(id);
    model.erase(id);
    ASSERT_EQ(table.find(id), nullptr);
  };
  const auto finish_random = [&] {
    auto it = model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(model.size())));
    finish(it->first);
  };
  // A bid (or reply, completion, deadline) for any id: live, finished, or
  // not issued yet. Only a live id may find its record; a late one drops.
  const auto deliver = [&] {
    const std::uint64_t id = rng.next_below(issued + 8);
    Record* r = table.find(id);
    const auto it = model.find(id);
    ASSERT_EQ(r != nullptr, it != model.end()) << "id " << id;
    if (r == nullptr) {
      ++late_dropped;
      return;
    }
    ASSERT_EQ(r->owner, id);
    r->bids.push_back(1);
    ASSERT_EQ(r->bids.size(), ++it->second);
  };
  const auto check = [&] {
    ASSERT_EQ(table.size(), model.size());
    if (model.empty()) return;
    // The ring always covers the live-id window: an open whose window
    // outgrew the ring grew it first.
    const std::uint64_t window = issued - model.begin()->first + 1;
    ASSERT_LE(window, table.ring_size());
    if (window > ring_before) ++ring_outgrown;
  };
  const auto run = [&](int steps, double p_begin, double p_finish) {
    for (int step = 0; step < steps; ++step) {
      const double op = rng.next_double();
      if (op < p_begin || model.empty()) {
        begin();
      } else if (op < p_begin + p_finish) {
        finish_random();
      } else {
        deliver();
      }
      check();
    }
  };

  // Ramp to hundreds of live ids, then churn around that level.
  run(2'000, 0.5, 0.1);
  ASSERT_GE(model.size(), 300u);
  run(20'000, 0.3, 0.3);
  ASSERT_GE(model.size(), 300u);

  // A long-lived straggler (like a stream that outlives thousands of later
  // opens) stretches the live-id window past the ring again and again.
  const std::uint64_t straggler = model.begin()->first;
  while (model.size() > 1) {
    auto it = std::next(model.begin());
    finish(it->first);
  }
  for (int i = 0; i < 5'000; ++i) {
    begin();
    if (model.size() > 40) finish(std::next(model.begin())->first);
    check();
  }
  ASSERT_TRUE(model.count(straggler));
  ASSERT_NE(table.find(straggler), nullptr);
  EXPECT_GE(ring_outgrown, 5u);

  // Drain: every id ever issued is now stale.
  while (!model.empty()) finish(model.begin()->first);
  for (std::uint64_t id = 0; id <= issued + 1; ++id) ASSERT_EQ(table.find(id), nullptr) << id;
  EXPECT_GT(late_dropped, 0u);
}

// ------------------------------------------------------------ EventQueue --

TEST(ReferenceModel, EventQueueMatchesMultimapModel) {
  sim::EventQueue queue;
  // Reference: ordered by (time, seq); cancellation removes by the id the
  // queue issued. Ids of popped/cancelled events must go stale (the queue
  // recycles slots under a new generation).
  std::multimap<std::pair<std::int64_t, std::uint64_t>, std::uint64_t> model;
  std::map<std::uint64_t, std::multimap<std::pair<std::int64_t, std::uint64_t>,
                                        std::uint64_t>::iterator>
      by_id;
  std::vector<std::uint64_t> issued;  // every id ever returned, live or stale
  Rng rng{7};
  std::uint64_t seq = 0;  // mirrors the queue's internal push counter
  std::int64_t last_popped = 0;

  const auto push = [&](std::int64_t t) {
    const sim::EventId id = queue.push(SimTime::micros(t), [] {});
    const std::uint64_t raw = sim::to_underlying(id);
    ASSERT_EQ(by_id.count(raw), 0u) << "queue reissued a live id";
    by_id.emplace(raw, model.emplace(std::make_pair(t, seq), raw));
    issued.push_back(raw);
    ++seq;
  };
  const auto pop = [&] {
    sim::Event out;
    const bool got = queue.pop(out);
    ASSERT_EQ(got, !model.empty());
    if (!got) return;
    const auto expected = model.begin();
    ASSERT_EQ(out.time.as_micros(), expected->first.first);
    ASSERT_EQ(out.seq, expected->first.second);
    ASSERT_EQ(sim::to_underlying(out.id), expected->second);
    last_popped = out.time.as_micros();
    by_id.erase(expected->second);
    model.erase(expected);
  };
  const auto cancel = [&] {  // a random previously issued (possibly stale) id
    const std::uint64_t target = issued[rng.next_below(issued.size())];
    const auto it = by_id.find(target);
    const bool cancelled = queue.cancel(sim::EventId{target});
    ASSERT_EQ(cancelled, it != by_id.end());
    if (it != by_id.end()) {
      model.erase(it->second);
      by_id.erase(it);
    }
  };
  const auto check = [&] {
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.next_time().as_micros(),
              model.empty() ? SimTime::max().as_micros() : model.begin()->first.first);
    ASSERT_TRUE(queue.conserved());
  };

  // Phase 1: every time inside [0, 1000) us — one tick, so the near heap
  // alone orders everything.
  for (int step = 0; step < 30'000; ++step) {
    const double op = rng.next_double();
    if (op < 0.5 || issued.empty()) {
      push(static_cast<std::int64_t>(rng.next_below(1000)));
    } else if (op < 0.8) {
      pop();
    } else {
      cancel();
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Phase 2: times spanning the near heap, the ring and the overflow heap
  // (more than kRingBuckets ticks ahead), exact tick boundaries, same-time
  // ties, pushes below the horizon, and far pushes into an empty queue.
  // Fill and drain spells alternate, so pops cross runs of empty buckets.
  constexpr std::int64_t kTick = std::int64_t{1} << sim::EventQueue::kTickShift;
  constexpr auto kRing = static_cast<std::int64_t>(sim::EventQueue::kRingBuckets);
  const auto span = [&rng](std::int64_t lo, std::int64_t hi) {  // uniform in [lo, hi)
    return lo + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
  };
  std::vector<std::int64_t> pushed_times;
  const auto pick_time = [&]() -> std::int64_t {
    const std::int64_t base = last_popped;
    const double kind = rng.next_double();
    if (model.empty() && kind < 0.5) return base + span(kRing + 1, 3 * kRing) * kTick;
    if (kind < 0.25) return base + span(0, 2 * kTick);                      // near
    if (kind < 0.50) return base + span(1, kRing) * kTick + span(0, kTick);  // ring
    if (kind < 0.60) return base + span(kRing + 1, 3 * kRing) * kTick;       // overflow
    if (kind < 0.75 && !pushed_times.empty()) {                             // tie
      return pushed_times[rng.next_below(pushed_times.size())];
    }
    if (kind < 0.85) return (base / kTick + span(0, 4)) * kTick;  // tick boundary
    return span(0, base + 1);  // anywhere up to now: mostly below the horizon
  };
  for (int step = 0; step < 60'000; ++step) {
    const bool draining = (step / 3'000) % 2 == 1;
    const double op = rng.next_double();
    if (op < (draining ? 0.15 : 0.6) || issued.empty()) {
      const std::int64_t t = pick_time();
      pushed_times.push_back(t);
      push(t);
    } else if (op < (draining ? 0.9 : 0.85)) {
      pop();
    } else {
      cancel();
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!model.empty()) {
    pop();
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(queue.empty());
}

// -------------------------------------------------------- BandwidthLedger --

TEST(ReferenceModel, LedgerMatchesScalarIntegration) {
  const double cap = 1.8e6;
  storage::BandwidthLedger ledger{Bandwidth::bytes_per_sec(cap), SimTime::zero()};
  double assigned = 0.0;
  double over = 0.0;
  double current = 0.0;
  std::int64_t t_us = 0;
  Rng rng{99};

  for (int step = 0; step < 50'000; ++step) {
    const std::int64_t dt = static_cast<std::int64_t>(rng.next_below(5'000'000));
    t_us += dt;
    const double dt_s = static_cast<double>(dt) / 1e6;
    assigned += current * dt_s;
    over += std::max(0.0, current - cap) * dt_s;
    current = rng.uniform(0.0, 3e6);
    ledger.on_allocation_change(SimTime::micros(t_us), Bandwidth::bytes_per_sec(current));
  }
  ledger.advance_to(SimTime::micros(t_us + 1'000'000));
  assigned += current * 1.0;
  over += std::max(0.0, current - cap) * 1.0;

  EXPECT_NEAR(ledger.assigned_bytes(), assigned, assigned * 1e-9 + 1.0);
  EXPECT_NEAR(ledger.overallocated_bytes(), over, over * 1e-9 + 1.0);
}

// ------------------------------------------------------- TwoQueueHistory --

TEST(ReferenceModel, HistoryMatchesDequeModel) {
  core::HistoryParams params;
  params.sample_limit = 5;
  params.expiry = SimTime::seconds(30.0);
  core::TwoQueueHistory history{params};

  // Reference model of the recording window.
  struct Window {
    std::int64_t start_us = 0;
    std::int64_t bytes = 0;
    std::size_t samples = 0;
    bool open = false;
  };
  Window rec;
  Window ref;
  bool ref_valid = false;
  std::int64_t ref_end_us = 0;

  Rng rng{41};
  std::int64_t now_us = 0;
  const auto exchange = [&](std::int64_t at_us) {
    ref = rec;
    ref_valid = true;
    ref_end_us = at_us;
    rec = Window{};
    rec.start_us = at_us;
  };

  for (int step = 0; step < 20'000; ++step) {
    now_us += static_cast<std::int64_t>(rng.next_below(8'000'000));
    // Model: expiry check first, then record.
    if (rec.open && now_us - rec.start_us >= 30'000'000) exchange(now_us);
    const std::int64_t bytes = static_cast<std::int64_t>(rng.next_below(1'000'000));
    if (!rec.open) {
      rec.start_us = now_us;
      rec.open = true;
    }
    rec.bytes += bytes;
    ++rec.samples;
    if (rec.samples >= 5) exchange(now_us);

    history.record(SimTime::micros(now_us), Bytes::of(bytes));

    const core::WindowStats stats = history.reference(SimTime::micros(now_us));
    ASSERT_EQ(stats.valid, ref_valid) << "step " << step;
    if (ref_valid) {
      ASSERT_EQ(stats.fs_total.count(), ref.bytes);
      ASSERT_EQ(stats.samples, ref.samples);
      ASSERT_EQ(stats.t_start.as_micros(), ref.start_us);
      ASSERT_EQ(stats.t_end.as_micros(), ref_end_us);
    }
  }
}

}  // namespace
}  // namespace sqos
