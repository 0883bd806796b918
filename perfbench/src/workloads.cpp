#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "check/invariant_auditor.hpp"
#include "core/selection_tree.hpp"
#include "dfs/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/paper_setup.hpp"
#include "obs/recorder.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "stats/qos_metrics.hpp"
#include "stats/tenant_metrics.hpp"
#include "workload/access_pattern.hpp"
#include "workload/placement.hpp"
#include "workload/request_scheduler.hpp"
#include "workload/video_catalog.hpp"

namespace perfbench {
namespace {

using namespace sqos;
using Clock = std::chrono::steady_clock;

// Timed runs per workload: at least kMinTimedRuns whatever --seconds says,
// so every median has samples on both sides; set-up is repeated until it
// has kMinSetupSamples samples.
constexpr std::size_t kMinTimedRuns = 3;
constexpr std::size_t kMaxTimedRuns = 200;
constexpr std::size_t kMinSetupSamples = 9;

// The speed probe (probe.hpp): 64 MiB of records, between the 14 MB and
// 200 MB working sets of the workloads, run in slices of about 2 ms. A pass
// of one simulated run probes between kWindowSlices equal sim-time slices of
// its arrival window and every kDrainSliceEvents events of its drain;
// paper_tables probes between its cells instead.
constexpr std::size_t kProbeArrayMb = 64;
constexpr std::size_t kProbeSliceEvents = 4096;
constexpr std::int64_t kWindowSlices = 64;
constexpr std::uint64_t kDrainSliceEvents = 65'536;

// Seed-1 scale_soft fingerprint recorded when the workload was defined. A
// drift means the workload itself changed, which must not pass silently.
constexpr std::uint64_t kScaleSeed1Events = 2'622'187;
constexpr std::uint64_t kScaleSeed1Requests = 200'018;

[[noreturn]] void setup_failed(const char* phase, const Status& status) {
  throw std::runtime_error(std::string{phase} + " failed: " + status.to_string());
}

// ------------------------------------------------------------------ tally --

/// Everything measured in one simulated run, or summed over the cells of
/// one paper_tables pass.
struct Tally {
  // Host time per phase.
  double setup_s = 0.0;  // catalog .. schedule
  double catalog_ms = 0.0, build_ms = 0.0, placement_ms = 0.0, start_ms = 0.0;
  double pattern_ms = 0.0, schedule_ms = 0.0;
  double window_s = 0.0, drain_s = 0.0, extract_ms = 0.0, teardown_ms = 0.0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;  // window + drain

  // Simulated outcome.
  std::uint64_t events = 0, messages = 0, bytes = 0, dropped = 0;
  std::uint64_t reads = 0, writes = 0, failed_ops = 0, unexpected_failures = 0;
  std::uint64_t reads_failed = 0;
  double s_oa = 0.0, s_ta = 0.0;
  std::uint64_t negotiation_us = 0, negotiations = 0;
  std::uint64_t storage_bytes = 0;
  std::uint64_t read_cfps = 0, write_cfps = 0, cfps = 0, bids = 0, bid_timeouts = 0;
  std::uint64_t ec_reads = 0, ec_degraded = 0;
  std::uint64_t data_requests = 0, firm_rejects = 0, cfps_answered = 0, mm_queries = 0;
  std::uint64_t rep_rounds = 0, rep_copies = 0, rep_requests = 0, rep_rejects = 0;
  std::uint64_t rebalance_bytes = 0;
  std::uint64_t qos_admitted = 0, qos_throttled = 0;
  double floor_violation_rate = 0.0;
  double jain_index = 0.0;
  std::vector<double> write_latency_s;

  [[nodiscard]] double simulate_s() const { return window_s + drain_s; }
  [[nodiscard]] double wall_s() const {
    return setup_s + simulate_s() + (extract_ms + teardown_ms) / 1e3;
  }
  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }
  [[nodiscard]] double overallocate_ratio() const { return s_ta <= 0.0 ? 0.0 : s_oa / s_ta; }
  [[nodiscard]] Fingerprint fingerprint() const {
    return make_fingerprint(events, messages, ops(), failed_ops, storage_bytes,
                            overallocate_ratio());
  }

  /// Fold another run in (paper_tables sums its cells).
  void add(const Tally& o) {
    setup_s += o.setup_s;
    catalog_ms += o.catalog_ms;
    build_ms += o.build_ms;
    placement_ms += o.placement_ms;
    start_ms += o.start_ms;
    pattern_ms += o.pattern_ms;
    schedule_ms += o.schedule_ms;
    window_s += o.window_s;
    drain_s += o.drain_s;
    extract_ms += o.extract_ms;
    teardown_ms += o.teardown_ms;
    setup_allocs += o.setup_allocs;
    run_allocs += o.run_allocs;
    events += o.events;
    messages += o.messages;
    bytes += o.bytes;
    dropped += o.dropped;
    reads += o.reads;
    writes += o.writes;
    failed_ops += o.failed_ops;
    reads_failed += o.reads_failed;
    unexpected_failures += o.unexpected_failures;
    s_oa += o.s_oa;
    s_ta += o.s_ta;
    negotiation_us += o.negotiation_us;
    negotiations += o.negotiations;
    storage_bytes += o.storage_bytes;
    read_cfps += o.read_cfps;
    write_cfps += o.write_cfps;
    cfps += o.cfps;
    bids += o.bids;
    bid_timeouts += o.bid_timeouts;
    ec_reads += o.ec_reads;
    ec_degraded += o.ec_degraded;
    data_requests += o.data_requests;
    firm_rejects += o.firm_rejects;
    cfps_answered += o.cfps_answered;
    mm_queries += o.mm_queries;
    rep_rounds += o.rep_rounds;
    rep_copies += o.rep_copies;
    rep_requests += o.rep_requests;
    rep_rejects += o.rep_rejects;
    rebalance_bytes += o.rebalance_bytes;
    qos_admitted += o.qos_admitted;
    qos_throttled += o.qos_throttled;
    write_latency_s.insert(write_latency_s.end(), o.write_latency_s.begin(),
                           o.write_latency_s.end());
  }
};

/// The traced run's per-step record: host time of every Simulator::step()
/// and the largest pending-event count seen.
struct StepTrace {
  std::vector<double> step_ns;
  std::uint64_t pending_max = 0;
};

class Calibration;

struct RunFlags {
  Calibration* calibration = nullptr;  // timed pass: probe slices inside it
  StepTrace* steps = nullptr;  // traced run: time every event
  bool attach_obs = false;     // wire an obs::Recorder into the cluster
  bool audit = false;          // quiescent invariant audit after the run
  bool setup_only = false;     // stop after scheduling (set-up samples)
  bool no_faults = false;      // ingest_ec without its crash/drain script
};

/// The outputs exp::run_experiment also reports, compared bit for bit.
struct ExperimentView {
  std::uint64_t requests = 0, completed = 0, failed = 0, events = 0, messages = 0;
  std::uint64_t control_bytes = 0, storage_bytes = 0;
  double fail_rate = 0.0, overallocate_ratio = 0.0, mean_negotiation_ms = 0.0;
};

std::string view_diff(const ExperimentView& a, const exp::ExperimentResult& r) {
  std::string out;
  const auto u = [&out](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x != y) out += std::string{" "} + name + " " + std::to_string(x) + "!=" + std::to_string(y);
  };
  const auto d = [&out](const char* name, double x, double y) {
    if (x != y) out += std::string{" "} + name + " " + format_number(x) + "!=" + format_number(y);
  };
  u("requests", a.requests, r.requests);
  u("completed", a.completed, r.completed);
  u("failed", a.failed, r.failed);
  u("events", a.events, r.executed_events);
  u("messages", a.messages, r.control_messages);
  u("control_bytes", a.control_bytes, r.control_bytes);
  u("storage_bytes", a.storage_bytes, r.storage_bytes_used);
  d("fail_rate", a.fail_rate, r.fail_rate);
  d("overallocate_ratio", a.overallocate_ratio, r.overallocate_ratio);
  d("mean_negotiation_ms", a.mean_negotiation_ms, r.mean_negotiation_ms);
  return out;
}

// ------------------------------------------------------------ bench state --

class Bench {
 public:
  SpanRecorder spans;
  std::vector<std::string> errors;

  std::uint32_t new_run() { return next_run_++; }
  void fail(std::string message) {
    if (errors.size() < 32) errors.push_back(std::move(message));
  }

 private:
  std::uint32_t next_run_ = 0;
};

double ms(double seconds) { return seconds * 1e3; }

/// Probe slices inside the timed passes (probe.hpp). They run between the
/// cells of a pass or between slices of its simulate phase, and once after
/// the pass; their mean time per event is the machine's speed during it.
class Calibration {
 public:
  Calibration() : probe_{kProbeArrayMb} {}

  /// One probe slice, in span "bench.probe"; returns its host seconds, which
  /// the caller keeps out of the phase time it interrupts.
  double slice(Bench& b, std::uint32_t run) {
    ScopedSpan span{b.spans, "bench.probe", run};
    const double seconds = probe_.run(kProbeSliceEvents);
    pass_s_ += seconds;
    pass_events_ += kProbeSliceEvents;
    return seconds;
  }

  /// Close a pass with one more slice; returns the factor that turns the
  /// pass's host seconds into calibrated seconds.
  double end_pass(Bench& b) {
    (void)slice(b, 0);
    const double ns_per_event = pass_s_ * 1e9 / static_cast<double>(pass_events_);
    ns_per_event_.push_back(ns_per_event);
    pass_s_ = 0.0;
    pass_events_ = 0;
    return kProbeReferenceNsPerEvent / ns_per_event;
  }

  /// Probe nanoseconds per event of every pass closed so far.
  [[nodiscard]] const std::vector<double>& ns_per_event() const { return ns_per_event_; }

 private:
  SpeedProbe probe_;
  double pass_s_ = 0.0;
  std::uint64_t pass_events_ = 0;
  std::vector<double> ns_per_event_;
};

// ------------------------------------------------------- simulate phases --

void record_step(sim::Simulator& sim, StepTrace& trace, Clock::time_point& last) {
  const Clock::time_point now = Clock::now();
  trace.step_ns.push_back(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(now - last).count()));
  last = now;
  trace.pending_max = std::max<std::uint64_t>(trace.pending_max, sim.pending_events());
}

/// Simulator::run_until, or the same events one step() at a time. With a
/// probe, the window runs as kWindowSlices equal sim-time slices with a probe
/// slice between them. Returns the probe's host seconds.
double run_window(sim::Simulator& sim, SimTime until, StepTrace* trace,
                  const std::function<double()>& probe) {
  if (trace == nullptr && !probe) {
    sim.run_until(until);
    return 0.0;
  }
  if (trace == nullptr) {
    const SimTime from = sim.now();
    const std::int64_t length_us = (until - from).as_micros();
    double probe_s = 0.0;
    for (std::int64_t i = 1; i < kWindowSlices; ++i) {
      sim.run_until(from + SimTime::micros(length_us * i / kWindowSlices));
      probe_s += probe();
    }
    sim.run_until(until);
    return probe_s;
  }
  trace->pending_max = std::max<std::uint64_t>(trace->pending_max, sim.pending_events());
  Clock::time_point last = Clock::now();
  while (sim.next_event_time() <= until && sim.step()) record_step(sim, *trace, last);
  sim.run_until(until);  // no event is left at or before `until`: only pins now()
  return 0.0;
}

/// Simulator::run, or the same events one step() at a time (which is all
/// Simulator::run does). With a probe, a probe slice runs after every
/// kDrainSliceEvents events. Returns the probe's host seconds.
double run_drain(sim::Simulator& sim, StepTrace* trace, const std::function<double()>& probe) {
  if (trace == nullptr && !probe) {
    sim.run();
    return 0.0;
  }
  if (trace == nullptr) {
    double probe_s = 0.0;
    for (;;) {
      std::uint64_t n = 0;
      while (n < kDrainSliceEvents && sim.step()) ++n;
      if (n < kDrainSliceEvents) return probe_s;
      probe_s += probe();
    }
  }
  Clock::time_point last = Clock::now();
  while (sim.step()) record_step(sim, *trace, last);
  return 0.0;
}

/// Sum the client, RM, MM, agent and network counters of a finished run.
void extract_counters(dfs::Cluster& cluster, Tally& t) {
  const sim::Simulator& sim = cluster.simulator();
  for (const stats::RmQosSummary& s : stats::collect_rm_summaries(cluster, sim.now())) {
    t.s_oa += s.overallocated_bytes;
    t.s_ta += s.assigned_bytes;
  }
  t.events = sim.executed_events();
  const net::TrafficStats& net = cluster.network().stats();
  t.messages = net.total_messages;
  t.bytes = net.total_bytes;
  t.dropped = net.dropped_messages;
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    const dfs::DfsClient::Counters& k = cluster.client(c).counters();
    t.negotiation_us += k.negotiation_us_sum;
    t.negotiations += k.negotiations;
    t.cfps += k.cfps_sent;
    t.bids += k.bids_received;
    t.bid_timeouts += k.bid_timeouts;
    t.ec_reads += k.ec_reads;
    t.ec_degraded += k.ec_degraded_reads;
  }
  for (std::size_t r = 0; r < cluster.rm_count(); ++r) {
    const dfs::ResourceManager& rm = cluster.rm(r);
    const dfs::ResourceManager::Counters& k = rm.counters();
    t.data_requests += k.data_requests;
    t.firm_rejects += k.firm_rejects;
    t.cfps_answered += k.cfps_answered;
    t.rep_requests += k.replication_requests;
    t.rep_rejects += k.replication_rejects;
    t.storage_bytes += static_cast<std::uint64_t>(rm.disk().used().count());
  }
  for (std::size_t s = 0; s < cluster.mm().shard_count(); ++s) {
    const dfs::MetadataManager::Counters& k = cluster.mm().shard(s).counters();
    t.mm_queries += k.resource_queries + k.replica_list_queries + k.stripe_queries;
  }
  t.rep_rounds = cluster.replication().counters().rounds_started;
  t.rep_copies = cluster.replication().counters().copies_completed;
  t.rebalance_bytes = cluster.rebalance().counters().bytes_moved;
  if (const qos::QosManager* q = cluster.qos(); q != nullptr) {
    for (std::size_t i = 0; i < q->tenant_count(); ++i) {
      t.qos_admitted += q->stats(static_cast<qos::TenantId>(i)).admitted;
      t.qos_throttled += q->stats(static_cast<qos::TenantId>(i)).throttled;
    }
    const std::vector<stats::TenantSummary> tenants =
        stats::collect_tenant_summaries(cluster, cluster.simulator().now());
    t.jain_index = stats::jain_fairness(tenants);
    t.floor_violation_rate = stats::aggregate_floor_violation_rate(tenants);
  }
}

/// Untimed checks on a finished run: the quiescent invariant catalog and
/// the rebalance agent's in-flight count.
void audit_run(Bench& b, dfs::Cluster& cluster, std::uint32_t run, bool firm, const char* what) {
  ScopedSpan span{b.spans, "check.audit_quiescent", run};
  check::InvariantAuditor::Options options;
  options.expect_firm_cap = firm;
  check::InvariantAuditor auditor{cluster, options};
  const std::vector<check::Violation> violations = auditor.audit_quiescent();
  if (!violations.empty()) {
    b.fail(std::string{what} + ": " + std::to_string(violations.size()) +
           " invariant violations, first " + violations.front().to_string());
  }
  if (cluster.rebalance().in_flight() != 0) {
    b.fail(std::string{what} + ": " + std::to_string(cluster.rebalance().in_flight()) +
           " rebalance migrations still in flight");
  }
}

/// The objects one simulated run keeps alive between its phases, declared
/// so that implicit destruction also runs scheduler, cluster, recorder.
struct LiveRun {
  std::unique_ptr<obs::Recorder> recorder;  // must outlive the cluster
  std::unique_ptr<dfs::Cluster> cluster;
  std::optional<workload::RequestScheduler> scheduler;  // refers to the cluster
};

/// Timed Cluster::start, with the observability recorder wired in first
/// when asked for (so the registration protocol is traced too).
void start_cluster(Bench& b, std::uint32_t run, LiveRun& live, const RunFlags& flags, Tally& t) {
  ScopedSpan s{b.spans, "dfs.Cluster.start", run};
  if (flags.attach_obs) {
    live.recorder = std::make_unique<obs::Recorder>(live.cluster->simulator());
    live.cluster->attach_observability(*live.recorder);
  }
  live.cluster->start();
  t.start_ms = ms(s.close());
}

/// The timed simulate phase: the arrival window, then the drain.
void simulate(Bench& b, std::uint32_t run, LiveRun& live, SimTime pattern_end,
              const RunFlags& flags, Tally& t) {
  sim::Simulator& sim = live.cluster->simulator();
  std::function<double()> probe;
  if (flags.calibration != nullptr) {
    probe = [&b, run, calibration = flags.calibration] { return calibration->slice(b, run); };
  }
  const std::uint64_t allocs = allocation_count();
  ScopedSpan simulate{b.spans, "simulate", run};
  {
    ScopedSpan s{b.spans, "sim.Simulator.run_until", run};
    const double probe_s = run_window(sim, pattern_end, flags.steps, probe);
    t.window_s = s.close() - probe_s;
  }
  {
    ScopedSpan s{b.spans, "sim.Simulator.run", run};
    const double probe_s = run_drain(sim, flags.steps, probe);
    t.drain_s = s.close() - probe_s;
  }
  t.run_allocs = allocation_count() - allocs;
}

/// Timed teardown.
double teardown(Bench& b, std::uint32_t run, LiveRun& live) {
  ScopedSpan s{b.spans, "teardown", run};
  live.scheduler.reset();
  live.cluster.reset();
  live.recorder.reset();
  return ms(s.close());
}

// -------------------------------------------------- experiment-shaped run --

/// One run built from public calls in exactly the order exp::run_experiment
/// makes them (same RNG forks, same placement, same schedule), with every
/// phase timed from outside. Supports the parameters the workloads use:
/// paper or scaled topology, replication or EC layout, no tenants.
Tally run_experiment_shaped(Bench& b, const exp::ExperimentParams& p, const RunFlags& flags,
                            ExperimentView* view) {
  const std::uint32_t run = b.new_run();
  Tally t;
  const std::uint64_t allocs_begin = allocation_count();
  Rng root{p.seed};
  LiveRun live;
  SimTime pattern_end;
  {
    ScopedSpan setup{b.spans, "setup", run};
    dfs::FileDirectory directory;
    {
      ScopedSpan s{b.spans, "workload.generate_catalog", run};
      Rng catalog_rng = root.fork("catalog");
      directory = workload::generate_catalog(p.catalog, catalog_rng);
      t.catalog_ms = ms(s.close());
    }
    {
      ScopedSpan s{b.spans, "dfs.Cluster.build", run};
      dfs::ClusterConfig config = p.cluster.value_or(exp::paper_cluster_config());
      config.mode = p.mode;
      config.policy = p.policy;
      config.replication = p.replication;
      config.deletion = p.deletion;
      config.negotiation = p.negotiation;
      config.exec_shards = p.shards;
      config.layout = p.layout;
      config.seed = root.fork("cluster").seed();
      auto built = dfs::Cluster::build(std::move(config), std::move(directory));
      if (!built.is_ok()) setup_failed("cluster build", built.status());
      live.cluster = std::move(built).take();
      t.build_ms = ms(s.close());
    }
    {
      ScopedSpan s{b.spans, "workload.place", run};
      Rng placement_rng = root.fork("placement");
      const Status placed =
          p.layout.is_ec()
              ? workload::place_stripes(*live.cluster, p.layout)
              : workload::place_static_replicas(*live.cluster, p.placement, placement_rng);
      if (!placed.is_ok()) setup_failed("placement", placed);
      t.placement_ms = ms(s.close());
    }
    start_cluster(b, run, live, flags, t);
    std::vector<workload::AccessEvent> pattern;
    const workload::PatternParams pattern_params =
        p.pattern.value_or(exp::paper_pattern_params(p.users));
    {
      ScopedSpan s{b.spans, "workload.generate_pattern", run};
      Rng pattern_rng = root.fork("pattern");
      pattern = workload::generate_pattern(live.cluster->directory(), pattern_params, pattern_rng);
      t.pattern_ms = ms(s.close());
    }
    {
      ScopedSpan s{b.spans, "workload.RequestScheduler.schedule", run};
      live.scheduler.emplace(*live.cluster, std::move(pattern));
      live.scheduler->schedule(p.start_offset);
      pattern_end = p.start_offset + pattern_params.duration;
      live.cluster->gc().start(pattern_end);
      t.schedule_ms = ms(s.close());
    }
    t.setup_s = setup.close();
  }
  t.setup_allocs = allocation_count() - allocs_begin;
  if (flags.setup_only) {
    (void)teardown(b, run, live);
    return t;
  }
  simulate(b, run, live, pattern_end, flags, t);

  {
    ScopedSpan s{b.spans, "stats.extract", run};
    extract_counters(*live.cluster, t);
    t.reads = live.scheduler->dispatched();
    t.reads_failed = live.scheduler->failed();
    t.failed_ops = live.scheduler->failed();
    // Firm-mode refusals are the admission outcome the paper measures (the
    // fail rate); nothing may fail in a soft-mode, fault-free run.
    t.unexpected_failures = p.mode == core::AllocationMode::kSoft ? live.scheduler->failed() : 0;
    t.read_cfps = t.cfps;
    if (view != nullptr) {
      view->requests = live.scheduler->dispatched();
      view->completed = live.scheduler->completed();
      view->failed = live.scheduler->failed();
      view->events = t.events;
      view->messages = t.messages;
      view->control_bytes = t.bytes;
      view->storage_bytes = t.storage_bytes;
      view->fail_rate = live.scheduler->fail_rate();
      view->overallocate_ratio = t.overallocate_ratio();
      view->mean_negotiation_ms =
          t.negotiations == 0 ? 0.0
                              : static_cast<double>(t.negotiation_us) /
                                    static_cast<double>(t.negotiations) / 1000.0;
    }
    t.extract_ms = ms(s.close());
  }
  if (!live.scheduler->drained()) b.fail("run " + std::to_string(run) + ": scheduler not drained");
  if (flags.audit) {
    audit_run(b, *live.cluster, run, p.mode == core::AllocationMode::kFirm, "experiment run");
  }
  t.teardown_ms = teardown(b, run, live);
  return t;
}

// ------------------------------------------------------------- ingest_ec --

constexpr std::size_t kIngestRms = 256;
constexpr std::size_t kIngestUsers = 12'800;
constexpr std::size_t kReaderClients = 96;  // of 128; the other 32 write
constexpr double kWindowS = 600.0;
constexpr double kStartOffsetS = 5.0;
constexpr double kWriteEveryS = 0.5;
constexpr std::size_t kWriteReplicas = 2;
constexpr std::size_t kCrashes = 5;
constexpr double kWriteMinKiB = 256.0;
constexpr double kWriteMaxKiB = 512.0;
constexpr double kWriterFloorMbps = 11.0;
constexpr double kWriterCeilingMbps = 12.0;
constexpr double kCrashDownS = 40.0;

struct IngestState {
  std::uint64_t dispatched = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;         // every replica refused (QoS ceiling, space)
  std::uint64_t errored = 0;         // failed any other way
  std::uint64_t not_registered = 0;  // Cluster::add_file refused the new file
  std::vector<double> latency_s;     // sim time from dispatch to success
};

Tally run_ingest(Bench& b, std::uint64_t seed, const RunFlags& flags) {
  const std::uint32_t run = b.new_run();
  Tally t;
  const std::uint64_t allocs_begin = allocation_count();
  Rng root{seed};
  IngestState writes;  // written to by write callbacks until the drain ends
  LiveRun live;
  const SimTime start = SimTime::seconds(kStartOffsetS);
  const SimTime pattern_end = start + SimTime::seconds(kWindowS);
  {
    ScopedSpan setup{b.spans, "setup", run};
    dfs::FileDirectory directory;
    {
      ScopedSpan s{b.spans, "workload.generate_catalog", run};
      Rng catalog_rng = root.fork("catalog");
      directory = workload::generate_catalog(exp::paper_catalog_params(), catalog_rng);
      t.catalog_ms = ms(s.close());
    }
    {
      ScopedSpan s{b.spans, "dfs.Cluster.build", run};
      dfs::ClusterConfig config = exp::scaled_cluster_config(kIngestRms);
      config.mode = core::AllocationMode::kSoft;
      config.policy = core::PolicyWeights::p100();
      config.layout = storage::LayoutPolicy::erasure(4, 2);
      qos::TenantSlo readers;
      readers.name = "stream";
      readers.clients = kReaderClients;
      readers.floor = Bandwidth::mbps(2000.0);
      readers.ceiling = Bandwidth::mbps(100000.0);
      qos::TenantSlo writers;
      writers.name = "ingest";
      writers.clients = config.client_count - kReaderClients;
      writers.floor = Bandwidth::mbps(kWriterFloorMbps);
      writers.ceiling = Bandwidth::mbps(kWriterCeilingMbps);
      config.tenants = {readers, writers};
      config.qos_controller.enabled = true;
      config.seed = root.fork("cluster").seed();
      auto built = dfs::Cluster::build(std::move(config), std::move(directory));
      if (!built.is_ok()) setup_failed("cluster build", built.status());
      live.cluster = std::move(built).take();
      t.build_ms = ms(s.close());
    }
    {
      ScopedSpan s{b.spans, "workload.place", run};
      const Status placed = workload::place_stripes(*live.cluster, live.cluster->config().layout);
      if (!placed.is_ok()) setup_failed("stripe placement", placed);
      t.placement_ms = ms(s.close());
    }
    start_cluster(b, run, live, flags, t);
    std::vector<workload::AccessEvent> pattern;
    {
      ScopedSpan s{b.spans, "workload.generate_pattern", run};
      workload::PatternParams params = exp::paper_pattern_params(kIngestUsers);
      params.duration = SimTime::seconds(kWindowS);
      Rng pattern_rng = root.fork("pattern");
      pattern = workload::generate_pattern(live.cluster->directory(), params, pattern_rng);
      t.pattern_ms = ms(s.close());
    }
    {
      ScopedSpan s{b.spans, "workload.RequestScheduler.schedule", run};
      dfs::Cluster& c = *live.cluster;
      sim::Simulator& sim = c.simulator();
      const qos::QosManager* q = c.qos();
      const std::size_t reader_begin = q->client_begin(0);
      const std::size_t writer_begin = q->client_begin(1);
      const std::size_t writer_count = q->client_begin(2) - writer_begin;
      live.scheduler.emplace(c, std::move(pattern));
      live.scheduler->set_user_map(
          [reader_begin](std::uint32_t user) { return reader_begin + user % kReaderClients; });
      live.scheduler->schedule(start);

      // Fresh-file writes at a fixed simulated rate, whatever earlier
      // writes are doing (open loop). Metadata is drawn now, registered at
      // dispatch time.
      Rng ingest = root.fork("ingest");
      const dfs::FileId first_id = c.directory().next_id();
      std::size_t i = 0;
      for (SimTime at = start; at < pattern_end; at = at + SimTime::seconds(kWriteEveryS), ++i) {
        dfs::FileMeta meta;
        meta.id = first_id + i;
        meta.name = "ingest-" + std::to_string(i);
        meta.bitrate = Bandwidth::mbps(ingest.uniform(1.0, 2.0));
        meta.size =
            Bytes::of(static_cast<std::int64_t>(ingest.uniform(kWriteMinKiB, kWriteMaxKiB) * 1024.0));
        const std::size_t writer = writer_begin + i % writer_count;
        IngestState* state = &writes;
        sim.schedule_at(at, [&c, &sim, state, writer, meta] {
          if (!c.add_file(meta).is_ok()) {
            ++state->not_registered;
            return;
          }
          ++state->dispatched;
          const SimTime issued = sim.now();
          auto done = [&sim, state, issued](const Status& status) {
            if (status.is_ok()) {
              ++state->ok;
              state->latency_s.push_back((sim.now() - issued).as_seconds());
            } else if (status.code() == StatusCode::kResourceExhausted) {
              ++state->refused;
            } else {
              ++state->errored;
            }
          };
          c.client(writer).write_file(meta.id, kWriteReplicas, std::move(done));
        });
      }

      // Scripted faults: one RM at a time crashes and recovers, and one
      // other RM is drained half-way through the window.
      Rng faults = root.fork("faults");
      const auto drained = static_cast<std::size_t>(faults.next_below(kIngestRms));
      std::vector<std::size_t> victims;
      while (victims.size() < kCrashes) {
        const auto v = static_cast<std::size_t>(faults.next_below(kIngestRms));
        if (v != drained && std::find(victims.begin(), victims.end(), v) == victims.end()) {
          victims.push_back(v);
        }
      }
      if (!flags.no_faults) {
        const double spacing = kWindowS / static_cast<double>(kCrashes + 1);
        for (std::size_t k = 0; k < kCrashes; ++k) {
          const SimTime down = start + SimTime::seconds(spacing * static_cast<double>(k + 1));
          const std::size_t v = victims[k];
          sim.schedule_at(down, [&c, v] { c.fail_rm(v); });
          sim.schedule_at(down + SimTime::seconds(kCrashDownS), [&c, v] { c.recover_rm(v); });
        }
        sim.schedule_at(start + SimTime::seconds(kWindowS / 2.0),
                        [&c, drained] { c.rebalance().drain(c.rm(drained)); });
      }

      c.gc().start(pattern_end);
      c.start_qos_controller(pattern_end);
      t.schedule_ms = ms(s.close());
    }
    t.setup_s = setup.close();
  }
  t.setup_allocs = allocation_count() - allocs_begin;
  if (flags.setup_only) {
    (void)teardown(b, run, live);
    return t;
  }
  simulate(b, run, live, pattern_end, flags, t);

  {
    ScopedSpan s{b.spans, "stats.extract", run};
    extract_counters(*live.cluster, t);
    const qos::QosManager* q = live.cluster->qos();
    t.read_cfps = 0;
    t.write_cfps = 0;
    for (std::size_t c = 0; c < live.cluster->client_count(); ++c) {
      const std::uint64_t sent = live.cluster->client(c).counters().cfps_sent;
      (q->tenant_of_client(c) == 0 ? t.read_cfps : t.write_cfps) += sent;
    }
    t.reads = live.scheduler->dispatched();
    t.writes = writes.dispatched;
    t.reads_failed = live.scheduler->failed();
    t.failed_ops = live.scheduler->failed() + writes.refused + writes.errored;
    // Refused writes are the tenant ceiling at work and reads cut by a crash
    // are the fault script at work; run_workload checks the latter against a
    // fault-free twin pass. Any other write error is unexpected.
    t.unexpected_failures = writes.errored;
    t.write_latency_s = std::move(writes.latency_s);
    t.extract_ms = ms(s.close());
  }
  if (!live.scheduler->drained()) b.fail("ingest_ec: read scheduler not drained");
  if (writes.not_registered != 0) {
    b.fail("ingest_ec: " + std::to_string(writes.not_registered) + " new files not registered");
  }
  if (writes.ok + writes.refused + writes.errored != writes.dispatched) {
    b.fail("ingest_ec: " + std::to_string(writes.dispatched) + " writes dispatched but " +
           std::to_string(writes.ok + writes.refused + writes.errored) + " called back");
  }
  if (flags.audit) audit_run(b, *live.cluster, run, false, "ingest_ec");
  t.teardown_ms = teardown(b, run, live);
  return t;
}

// ------------------------------------------------------------- workloads --

exp::ExperimentParams scale_soft_params(std::uint64_t seed) {
  constexpr std::size_t kRms = 2048;
  constexpr std::size_t kUsers = 100'000;
  exp::ExperimentParams p;
  p.seed = seed;
  p.users = kUsers;
  p.mode = core::AllocationMode::kSoft;
  p.policy = core::PolicyWeights::p100();
  p.replication = core::ReplicationConfig::rep(1, 3);
  p.cluster = exp::scaled_cluster_config(kRms);
  workload::PatternParams pattern = exp::paper_pattern_params(kUsers);
  pattern.duration = SimTime::seconds(600.0);
  p.pattern = pattern;
  return p;
}

/// Every cell of Tables I-VII, in table order. Cell i runs seed
/// 1000 * seed + i: cells sharing one seed would share its catalog and access
/// pattern, so a heavy seed would weigh on all 85 at once.
std::vector<exp::ExperimentParams> paper_table_cells(std::uint64_t seed) {
  std::vector<exp::ExperimentParams> cells;
  const auto cell = [&cells, seed](std::size_t users, core::AllocationMode mode,
                                   core::PolicyWeights policy, core::ReplicationConfig rep) {
    exp::ExperimentParams p;
    p.seed = seed * 1000 + cells.size();
    p.users = users;
    p.mode = mode;
    p.policy = policy;
    p.replication = rep;
    cells.push_back(p);
  };
  using core::AllocationMode;
  using core::ReplicationConfig;
  const auto policies = core::PolicyWeights::paper_set();
  const std::array<std::size_t, 4> users{64, 128, 192, 256};
  const std::array<ReplicationConfig, 4> strategies{
      ReplicationConfig::static_only(), ReplicationConfig::baseline(),
      ReplicationConfig::rep(1, 8), ReplicationConfig::rep(1, 3)};
  const std::array<core::PolicyWeights, 2> two{core::PolicyWeights::random(),
                                               core::PolicyWeights::p100()};
  const std::array<core::DestinationStrategy, 3> destinations{
      core::DestinationStrategy::kRandom, core::DestinationStrategy::kLargestBandwidthFirst,
      core::DestinationStrategy::kWeighted};
  for (const auto& policy : policies) {  // Table I
    for (const std::size_t u : users) {
      cell(u, AllocationMode::kSoft, policy, ReplicationConfig::static_only());
    }
  }
  for (const auto& policy : policies) {  // Table II
    cell(256, AllocationMode::kSoft, policy, ReplicationConfig::static_only());
  }
  for (const auto& policy : policies) {  // Table III
    for (const std::size_t u : users) {
      cell(u, AllocationMode::kFirm, policy, ReplicationConfig::static_only());
    }
  }
  for (const auto& rep : strategies) {  // Table IV
    for (const auto& policy : policies) cell(256, AllocationMode::kSoft, policy, rep);
  }
  for (const auto& rep : strategies) {  // Table V
    for (const auto& policy : two) cell(256, AllocationMode::kFirm, policy, rep);
  }
  for (const AllocationMode mode : {AllocationMode::kSoft, AllocationMode::kFirm}) {
    for (const auto dest : destinations) {  // Tables VI (soft) and VII (firm)
      for (const auto& policy : two) {
        ReplicationConfig rep = ReplicationConfig::rep(1, 3);
        rep.destination = dest;
        cell(256, mode, policy, rep);
      }
    }
  }
  return cells;
}

/// One workload: a pass runs every cell in order (each also checked against
/// exp::run_experiment), or the ingest_ec script when there are no cells.
struct Workload {
  std::size_t rm_count = 0;
  std::vector<exp::ExperimentParams> cells;  // empty: ingest_ec
  std::uint64_t seed = 1;

  Tally pass(Bench& b, const RunFlags& flags, std::vector<ExperimentView>* views) const {
    if (cells.empty()) return run_ingest(b, seed, flags);
    // Many short cells: probe between them, not inside their simulate phases.
    RunFlags cell_flags = flags;
    if (cells.size() > 1) cell_flags.calibration = nullptr;
    Tally total;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0 && flags.calibration != nullptr) (void)flags.calibration->slice(b, 0);
      ExperimentView view;
      total.add(run_experiment_shaped(b, cells[i], cell_flags, views != nullptr ? &view : nullptr));
      if (views != nullptr) views->push_back(view);
    }
    return total;
  }
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.seed = seed;
  if (name == "scale_soft") {
    w.cells = {scale_soft_params(seed)};
    w.rm_count = 2048;
  } else if (name == "paper_tables") {
    w.cells = paper_table_cells(seed);
    w.rm_count = exp::paper_cluster_config().rms.size();
  } else if (name == "ingest_ec") {
    w.rm_count = kIngestRms;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// Host nanoseconds per selection decision on an `n`-slot core::SelectionTree,
/// the shape the MM and clients run per negotiation: a re-key, the argmax
/// with a tie pick and a 3-holder-excluded argmax. Best of five passes.
double decision_ns(std::size_t n) {
  constexpr std::size_t kIters = 200'000;
  const std::array<double, 4> levels{18.0e6, 19.0e6, 128.0e6, 18.5e6};
  double best = 0.0;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    core::SelectionTree tree{n};
    for (std::uint32_t s = 0; s < n; ++s) tree.set_key(s, s % 8 == 0 ? levels[2] : levels[s % 2]);
    std::array<std::uint32_t, 3> holders{};
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      const auto slot = static_cast<std::uint32_t>(i % n);
      tree.set_key(slot, levels[(i / n + slot) % levels.size()]);
      const core::SelectionTree::Best top = tree.best();
      sink += top.slot + tree.tie_at(static_cast<std::uint32_t>(i % top.ties));
      const auto base = static_cast<std::uint32_t>(i % (n > 3 ? n - 3 : 1));
      holders = {base, base + 1, base + 2};
      const core::SelectionTree::Best ex = tree.best_excluding(holders);
      sink += ex.ties == 0 ? 0 : ex.slot;
    }
    const double ns = static_cast<double>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                              .count()) /
                      static_cast<double>(kIters);
    if (pass == 0 || ns < best) best = ns;
  }
  asm volatile("" : : "r"(sink));
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

template <typename Fn>
std::vector<double> collect(const std::vector<Tally>& runs, Fn&& fn) {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const Tally& t : runs) out.push_back(fn(t));
  return out;
}

}  // namespace

Outcome run_workload(const Options& options) {
  const Workload w = make_workload(options.workload, options.seed);
  Bench b;
  Outcome out;

  // Warm-up pass: checked (quiescent audit) and the reference fingerprint.
  std::vector<ExperimentView> views;
  RunFlags checked;
  checked.audit = true;
  const Tally ref = w.pass(b, checked, &views);
  const double rss_mb = peak_rss_mb();  // one pass from a fresh process
  // ingest_ec: a read may fail only because the crash script cut it, so the
  // same seed without the script must complete every read.
  std::uint64_t unexplained_per_pass = 0;
  if (w.cells.empty()) {
    RunFlags twin = checked;
    twin.no_faults = true;
    const Tally fault_free = w.pass(b, twin, nullptr);
    unexplained_per_pass = fault_free.reads_failed;
  }
  const Fingerprint expected = ref.fingerprint();
  if (options.workload == "scale_soft" && options.seed == 1 &&
      (ref.events != kScaleSeed1Events || ref.reads != kScaleSeed1Requests)) {
    b.fail("scale_soft seed 1 drifted: " + std::to_string(ref.events) + " events, " +
           std::to_string(ref.reads) + " requests (pinned " + std::to_string(kScaleSeed1Events) +
           ", " + std::to_string(kScaleSeed1Requests) + ")");
  }

  // Timed passes, each a repeat of the same seed that must match the
  // reference fingerprint exactly, and each calibrated by the probe slices
  // run inside and right after it.
  Calibration calibration;
  RunFlags timed_flags;
  timed_flags.calibration = &calibration;
  std::vector<Tally> timed;
  std::vector<double> factors;  // calibration factor of each timed pass
  const Clock::time_point timed_begin = Clock::now();
  const auto elapsed = [&timed_begin] {
    return std::chrono::duration<double>(Clock::now() - timed_begin).count();
  };
  while (timed.size() < kMaxTimedRuns &&
         (timed.size() < kMinTimedRuns || elapsed() < options.seconds)) {
    timed.push_back(w.pass(b, timed_flags, nullptr));
    factors.push_back(calibration.end_pass(b));
    const std::string diff = fingerprint_diff(expected, timed.back().fingerprint());
    if (!diff.empty()) b.fail("repeat " + std::to_string(timed.size()) + " differs: " + diff);
  }

  // Set-up alone, until the set-up median has enough samples.
  std::vector<double> setup_samples;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    setup_samples.push_back(timed[i].setup_s * factors[i]);
  }
  RunFlags setup_only;
  setup_only.setup_only = true;
  setup_only.calibration = &calibration;
  while (setup_samples.size() < kMinSetupSamples) {
    const double setup_s = w.pass(b, setup_only, nullptr).setup_s;
    setup_samples.push_back(setup_s * calibration.end_pass(b));
  }

  // Differential: the benchmark's own runs against exp::run_experiment.
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    ScopedSpan span{b.spans, "check.run_experiment", 0};
    const exp::ExperimentResult r = exp::run_experiment(w.cells[i]);
    const std::string diff = view_diff(views[i], r);
    if (!diff.empty()) b.fail("cell " + std::to_string(i) + " differs from run_experiment:" + diff);
  }

  // End-to-end host times: the median over the timed passes of each pass's
  // calibrated time. On a shared machine the same pass runs at speeds that
  // drift by tens of percent within seconds; the probe slices inside a pass
  // drift with it, and a median over the whole timed window damps what they
  // miss. Raw host times stay in the per-layer group.
  std::vector<double> wall_cal;
  std::vector<double> simulate_cal;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    wall_cal.push_back(timed[i].wall_s() * factors[i]);
    simulate_cal.push_back(timed[i].simulate_s() * factors[i]);
  }
  const double wall_median = median(collect(timed, [](const Tally& t) { return t.wall_s(); }));
  const double simulate_median =
      median(collect(timed, [](const Tally& t) { return t.simulate_s(); }));
  for (const Tally& t : timed) {
    out.attempted += t.ops();
    out.failed += t.unexpected_failures + unexplained_per_pass;
  }
  MetricSet& m = out.metrics;
  m.set("wall_cal_s", median(wall_cal));
  m.set("setup_s", median(setup_samples));
  m.set("requests_per_cal_s", ratio(static_cast<double>(ref.ops()), median(simulate_cal)));
  m.set("peak_rss_mb", rss_mb);
  m.set("overallocate_ratio", ref.overallocate_ratio());
  m.set("negotiation_mean_ms",
        ratio(static_cast<double>(ref.negotiation_us), static_cast<double>(ref.negotiations)) /
            1000.0);
  m.set("control_msgs_per_op", ratio(ref.messages, ref.ops()));

  if (options.trace) {
    // The traced pass: every step timed, pending events sampled.
    StepTrace steps;
    steps.step_ns.reserve(ref.events);
    RunFlags traced_flags;
    traced_flags.steps = &steps;
    const Tally traced = w.pass(b, traced_flags, nullptr);
    const std::string diff = fingerprint_diff(expected, traced.fingerprint());
    if (!diff.empty()) b.fail("traced pass differs: " + diff);

    double obs_overhead = 0.0;  // not measured on scale_soft (README.md)
    if (options.workload != "scale_soft") {
      RunFlags obs_flags;
      obs_flags.attach_obs = true;
      const Tally with_obs = w.pass(b, obs_flags, nullptr);
      const std::string obs_diff = fingerprint_diff(expected, with_obs.fingerprint());
      if (!obs_diff.empty()) b.fail("pass with observability attached differs: " + obs_diff);
      obs_overhead = ratio(with_obs.wall_s(), wall_median);
    }

    const double ops = static_cast<double>(ref.ops());
    const double events = static_cast<double>(ref.events);
    m.set("fail_rate", ratio(ref.failed_ops, ref.ops()));
    m.set("bench.ops", ops);
    m.set("bench.passes", static_cast<double>(timed.size()));
    m.set("bench.wall_s", wall_median);
    m.set("bench.probe_ns_per_event", median(calibration.ns_per_event()));
    m.set("bench.trace_overhead", ratio(traced.wall_s(), wall_median));
    m.set("sim.events", events);
    m.set("sim.events_per_op", ratio(events, ops));
    m.set("sim.events_per_s", ratio(events, simulate_median));
    m.set("sim.pending_max", static_cast<double>(steps.pending_max));
    const Quantile p50 = quantile(steps.step_ns, 0.5);
    m.set("sim.step_ns_p50", p50.value);
    m.set("sim.step_ns_p99", quantile(steps.step_ns, 0.99).value);
    m.set("sim.step_samples", static_cast<double>(p50.samples));
    m.set("sim.allocs_per_event", ratio(static_cast<double>(traced.run_allocs), events));
    m.set("net.msgs_per_op", ratio(static_cast<double>(ref.messages), ops));
    m.set("net.bytes_per_op", ratio(static_cast<double>(ref.bytes), ops));
    m.set("net.dropped_msgs", static_cast<double>(ref.dropped));
    m.set("dfsc.cfps_per_read", ratio(ref.read_cfps, ref.reads));
    m.set("dfsc.cfps_per_write", ratio(ref.write_cfps, ref.writes));
    m.set("dfsc.bids_per_cfp", ratio(ref.bids, ref.cfps));
    m.set("dfsc.bid_timeouts_per_op", ratio(ref.bid_timeouts, ref.ops()));
    m.set("dfsc.ec_degraded_share", ratio(ref.ec_degraded, ref.ec_reads));
    const Quantile w50 = quantile(ref.write_latency_s, 0.5);
    m.set("dfsc.write_latency_p50_s", w50.value);
    m.set("dfsc.write_latency_p99_s", quantile(ref.write_latency_s, 0.99).value);
    m.set("dfsc.write_samples", static_cast<double>(w50.samples));
    m.set("rm.firm_reject_ratio", ratio(ref.firm_rejects, ref.data_requests));
    m.set("rm.cfps_answered_per_op", ratio(static_cast<double>(ref.cfps_answered), ops));
    m.set("mm.queries_per_op", ratio(static_cast<double>(ref.mm_queries), ops));
    m.set("replication.rounds", static_cast<double>(ref.rep_rounds));
    m.set("replication.copies_completed", static_cast<double>(ref.rep_copies));
    m.set("replication.reject_ratio", ratio(ref.rep_rejects, ref.rep_requests));
    m.set("rebalance.bytes_moved", static_cast<double>(ref.rebalance_bytes));
    m.set("core.decision_ns", decision_ns(w.rm_count));
    m.set("storage.bytes_used", static_cast<double>(ref.storage_bytes));
    m.set("qos.throttled_share", ratio(ref.qos_throttled, ref.qos_admitted + ref.qos_throttled));
    m.set("qos.floor_violation_rate", ref.floor_violation_rate);
    m.set("qos.jain_index", ref.jain_index);
    const auto med = [&timed](double Tally::*field) {
      return median(collect(timed, [field](const Tally& t) { return t.*field; }));
    };
    m.set("setup.catalog_ms", med(&Tally::catalog_ms));
    m.set("setup.cluster_build_ms", med(&Tally::build_ms));
    m.set("setup.placement_ms", med(&Tally::placement_ms));
    m.set("setup.start_ms", med(&Tally::start_ms));
    m.set("setup.pattern_ms", med(&Tally::pattern_ms));
    m.set("setup.schedule_ms", med(&Tally::schedule_ms));
    m.set("setup.allocs", static_cast<double>(traced.setup_allocs));
    m.set("run.window_s", med(&Tally::window_s));
    m.set("run.drain_s", med(&Tally::drain_s));
    m.set("run.extract_ms", med(&Tally::extract_ms));
    m.set("run.allocs", static_cast<double>(traced.run_allocs));
    m.set("obs.tracer_overhead", obs_overhead);

    if (!options.spans_path.empty() && !b.spans.write_json(options.spans_path)) {
      b.fail("cannot write the span file " + options.spans_path);
    }
  }
  out.errors = std::move(b.errors);
  return out;
}

}  // namespace perfbench
