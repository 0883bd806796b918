// The benchmark's result vocabulary: order statistics with their sample
// counts, the metric catalog (names, units, end-to-end vs per-layer), the
// result line, and the determinism fingerprint of one simulated run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics --

/// One order statistic and how many samples it was taken from.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank quantile (q in [0, 1]) of `values`; an empty input gives a
/// zero value with zero samples.
[[nodiscard]] Quantile quantile(std::vector<double> values, double q);

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

// --------------------------------------------------------- metric catalog --

enum class Group { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  Group group;
};

/// Every metric the benchmark reports, in output order.
[[nodiscard]] const std::vector<MetricDef>& metric_catalog();

/// Name rule: starts with a letter or digit, at most 64 of [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Unit rule: 1..16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Values keyed by catalog name; set() rejects names outside the catalog.
class MetricSet {
 public:
  void set(std::string_view name, double value);
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] double get(std::string_view name) const;

  /// Catalog entries of `group` that have no value yet.
  [[nodiscard]] std::vector<std::string> missing(Group group) const;

  /// `{"name": {"value": v, "unit": "u"}, ...}` over `group`, catalog order,
  /// values printed with all their digits.
  [[nodiscard]] std::string render(Group group) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

/// Shortest decimal that reads back to exactly `v`: integers in full, others
/// in the fewest significant digits (non-finite -> 0).
[[nodiscard]] std::string format_number(double v);

/// The last stdout line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {..}}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const MetricSet& metrics,
                                      Group group);

// ------------------------------------------------------------ fingerprint --

/// What one simulated run must reproduce exactly on a repeat of its seed.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t storage_bytes = 0;
  std::uint64_t overallocate_bits = 0;  // bit pattern of the R_OA double

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

[[nodiscard]] Fingerprint make_fingerprint(std::uint64_t events, std::uint64_t messages,
                                           std::uint64_t ops, std::uint64_t failed_ops,
                                           std::uint64_t storage_bytes, double overallocate);

/// Empty when equal; otherwise one "field: a != b" entry per differing field.
[[nodiscard]] std::string fingerprint_diff(const Fingerprint& expected, const Fingerprint& actual);

}  // namespace perfbench
