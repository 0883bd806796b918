#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <stdexcept>

namespace perfbench {

Quantile quantile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q * n samples at or below.
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  if (rank == 0) rank = 1;
  out.value = values[rank - 1];
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

const std::vector<MetricDef>& metric_catalog() {
  using G = Group;
  static const std::vector<MetricDef> catalog{
      // End to end: what a user running the simulator sees.
      {"wall_cal_s", "s", G::kEndToEnd},
      {"setup_s", "s", G::kEndToEnd},
      {"requests_per_cal_s", "1/s", G::kEndToEnd},
      {"peak_rss_mb", "MB", G::kEndToEnd},
      {"control_msgs_per_op", "msgs/op", G::kEndToEnd},
      // Per layer, from the traced run. The paper's QoS outcomes come first:
      // they repeat bit for bit per seed but vary too much across seeds to
      // hold an end-to-end bound (README.md).
      {"fail_rate", "ratio", G::kPerLayer},
      {"overallocate_ratio", "ratio", G::kPerLayer},
      {"negotiation_mean_ms", "ms", G::kPerLayer},
      {"bench.ops", "count", G::kPerLayer},
      {"bench.passes", "count", G::kPerLayer},
      {"bench.wall_s", "s", G::kPerLayer},
      {"bench.probe_ns_per_event", "ns", G::kPerLayer},
      {"bench.trace_overhead", "ratio", G::kPerLayer},
      {"sim.events", "count", G::kPerLayer},
      {"sim.events_per_op", "events/op", G::kPerLayer},
      {"sim.events_per_s", "1/s", G::kPerLayer},
      {"sim.pending_max", "count", G::kPerLayer},
      {"sim.step_ns_p50", "ns", G::kPerLayer},
      {"sim.step_ns_p99", "ns", G::kPerLayer},
      {"sim.step_samples", "count", G::kPerLayer},
      {"sim.allocs_per_event", "allocs/event", G::kPerLayer},
      {"net.msgs_per_op", "msgs/op", G::kPerLayer},
      {"net.bytes_per_op", "B/op", G::kPerLayer},
      {"net.dropped_msgs", "count", G::kPerLayer},
      {"dfsc.cfps_per_read", "cfps/read", G::kPerLayer},
      {"dfsc.cfps_per_write", "cfps/write", G::kPerLayer},
      {"dfsc.bids_per_cfp", "bids/cfp", G::kPerLayer},
      {"dfsc.bid_timeouts_per_op", "1/op", G::kPerLayer},
      {"dfsc.ec_degraded_share", "ratio", G::kPerLayer},
      {"dfsc.write_latency_p50_s", "s", G::kPerLayer},
      {"dfsc.write_latency_p99_s", "s", G::kPerLayer},
      {"dfsc.write_samples", "count", G::kPerLayer},
      {"rm.firm_reject_ratio", "ratio", G::kPerLayer},
      {"rm.cfps_answered_per_op", "cfps/op", G::kPerLayer},
      {"mm.queries_per_op", "queries/op", G::kPerLayer},
      {"replication.rounds", "count", G::kPerLayer},
      {"replication.copies_completed", "count", G::kPerLayer},
      {"replication.reject_ratio", "ratio", G::kPerLayer},
      {"rebalance.bytes_moved", "B", G::kPerLayer},
      {"core.decision_ns", "ns", G::kPerLayer},
      {"storage.bytes_used", "B", G::kPerLayer},
      {"qos.throttled_share", "ratio", G::kPerLayer},
      {"qos.floor_violation_rate", "ratio", G::kPerLayer},
      {"qos.jain_index", "ratio", G::kPerLayer},
      {"setup.catalog_ms", "ms", G::kPerLayer},
      {"setup.cluster_build_ms", "ms", G::kPerLayer},
      {"setup.placement_ms", "ms", G::kPerLayer},
      {"setup.start_ms", "ms", G::kPerLayer},
      {"setup.pattern_ms", "ms", G::kPerLayer},
      {"setup.schedule_ms", "ms", G::kPerLayer},
      {"setup.allocs", "count", G::kPerLayer},
      {"run.window_s", "s", G::kPerLayer},
      {"run.drain_s", "s", G::kPerLayer},
      {"run.extract_ms", "ms", G::kPerLayer},
      {"run.allocs", "count", G::kPerLayer},
      {"obs.tracer_overhead", "ratio", G::kPerLayer},
  };
  return catalog;
}

namespace {

bool allowed(std::string_view s, const char* extra, std::size_t max_len) {
  if (s.empty() || s.size() > max_len) return false;
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           std::strchr(extra, c) != nullptr;
  });
}

const MetricDef* find_def(std::string_view name) {
  for (const MetricDef& d : metric_catalog()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  return allowed(name, "_.-", 64) && std::isalnum(static_cast<unsigned char>(name.front())) != 0;
}

bool valid_unit(std::string_view unit) { return allowed(unit, "_/%.-", 16); }

void MetricSet::set(std::string_view name, double value) {
  if (find_def(name) == nullptr) {
    throw std::logic_error("metric not in the catalog: " + std::string{name});
  }
  values_[std::string{name}] = value;
}

bool MetricSet::has(std::string_view name) const { return values_.find(name) != values_.end(); }

double MetricSet::get(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string> MetricSet::missing(Group group) const {
  std::vector<std::string> out;
  for (const MetricDef& d : metric_catalog()) {
    if (d.group == group && !has(d.name)) out.emplace_back(d.name);
  }
  return out;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {  // counts print as integers
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string MetricSet::render(Group group) const {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& d : metric_catalog()) {
    if (d.group != group || !has(d.name)) continue;
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += d.name;
    out += "\": {\"value\": " + format_number(get(d.name)) + ", \"unit\": \"";
    out += d.unit;
    out += "\"}";
  }
  return out + "}";
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const MetricSet& metrics, Group group) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": " + metrics.render(group) + "}";
  return out;
}

Fingerprint make_fingerprint(std::uint64_t events, std::uint64_t messages, std::uint64_t ops,
                             std::uint64_t failed_ops, std::uint64_t storage_bytes,
                             double overallocate) {
  Fingerprint f{events, messages, ops, failed_ops, storage_bytes, 0};
  std::memcpy(&f.overallocate_bits, &overallocate, sizeof overallocate);
  return f;
}

std::string fingerprint_diff(const Fingerprint& expected, const Fingerprint& actual) {
  std::string out;
  const auto field = [&out](const char* name, std::uint64_t a, std::uint64_t b) {
    if (a == b) return;
    if (!out.empty()) out += "; ";
    out += name;
    out += ": " + std::to_string(a) + " != " + std::to_string(b);
  };
  field("events", expected.events, actual.events);
  field("messages", expected.messages, actual.messages);
  field("ops", expected.ops, actual.ops);
  field("failed_ops", expected.failed_ops, actual.failed_ops);
  field("storage_bytes", expected.storage_bytes, actual.storage_bytes);
  field("overallocate_bits", expected.overallocate_bits, actual.overallocate_bits);
  return out;
}

}  // namespace perfbench
