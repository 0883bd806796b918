// Unit tests for the benchmark's result vocabulary: quantiles with their
// sample counts, the metric catalog's naming and unit rules, the result
// line, and fingerprint comparison.
#include "report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(Quantile, NearestRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Quantile p50 = quantile(v, 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  const Quantile p99 = quantile(v, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.samples, 100u);
  EXPECT_EQ(quantile(v, 1.0).value, 100.0);
  EXPECT_EQ(quantile(v, 0.0).value, 1.0);
}

TEST(Quantile, EmptyAndSingleSample) {
  const Quantile empty = quantile({}, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0.0);
  const Quantile one = quantile({7.0}, 0.99);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.samples, 1u);
}

TEST(Quantile, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Catalog, NamesAndUnitsFollowTheRules) {
  std::set<std::string> seen;
  std::size_t end_to_end = 0;
  std::size_t per_layer = 0;
  for (const MetricDef& d : metric_catalog()) {
    EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
    EXPECT_TRUE(valid_unit(d.unit)) << d.name << " unit " << d.unit;
    EXPECT_TRUE(seen.insert(std::string{d.name}).second) << "duplicate " << d.name;
    (d.group == Group::kEndToEnd ? end_to_end : per_layer) += 1;
  }
  EXPECT_GE(end_to_end, 1u);
  EXPECT_LE(end_to_end, 16u);
  EXPECT_GE(per_layer, 1u);
  EXPECT_LE(per_layer, 128u);
  EXPECT_TRUE(seen.count("setup_s") == 1);
}

TEST(Catalog, NameAndUnitValidators) {
  EXPECT_TRUE(valid_metric_name("sim.step_ns_p99"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("msgs per op"));
  EXPECT_FALSE(valid_unit(std::string(17, 'u')));
}

TEST(MetricSet, RejectsUnknownNamesAndReportsMissing) {
  MetricSet m;
  EXPECT_THROW(m.set("no_such_metric", 1.0), std::logic_error);
  m.set("wall_cal_s", 1.5);
  const std::vector<std::string> missing = m.missing(Group::kEndToEnd);
  EXPECT_EQ(std::count(missing.begin(), missing.end(), "wall_cal_s"), 0);
  EXPECT_EQ(std::count(missing.begin(), missing.end(), "setup_s"), 1);
}

TEST(MetricSet, RendersOnlyTheRequestedGroupWithUnits) {
  MetricSet m;
  m.set("wall_cal_s", 2.5);
  m.set("sim.events", 42.0);
  EXPECT_EQ(m.render(Group::kEndToEnd), "{\"wall_cal_s\": {\"value\": 2.5, \"unit\": \"s\"}}");
  EXPECT_EQ(m.render(Group::kPerLayer), "{\"sim.events\": {\"value\": 42, \"unit\": \"count\"}}");
  EXPECT_EQ(result_line(true, 10, 0, m, Group::kEndToEnd),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"wall_cal_s\": {\"value\": 2.5, \"unit\": \"s\"}}}");
}

TEST(FormatNumber, RoundTripsEveryDigit) {
  for (const double v : {0.1, 1.0 / 3.0, 2.6221870000000001e6, 1e-9, 123456.789}) {
    EXPECT_EQ(std::stod(format_number(v)), v);
  }
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(format_number(6067260.0), "6067260");
  EXPECT_EQ(format_number(510.0), "510");
}

TEST(Fingerprint, EqualRunsHaveNoDiff) {
  const Fingerprint a = make_fingerprint(2622187, 2015638, 200018, 0, 1 << 20, 0.0123);
  const Fingerprint b = make_fingerprint(2622187, 2015638, 200018, 0, 1 << 20, 0.0123);
  EXPECT_EQ(a, b);
  EXPECT_EQ(fingerprint_diff(a, b), "");
}

TEST(Fingerprint, DiffNamesEveryDifferingField) {
  const Fingerprint a = make_fingerprint(10, 20, 5, 1, 100, 0.5);
  const Fingerprint b = make_fingerprint(11, 20, 5, 2, 100, 0.5);
  EXPECT_NE(a, b);
  EXPECT_EQ(fingerprint_diff(a, b), "events: 10 != 11; failed_ops: 1 != 2");
}

TEST(Fingerprint, ComparesTheRatioBitForBit) {
  const double x = 0.1 + 0.2;  // 0.30000000000000004
  const Fingerprint a = make_fingerprint(1, 1, 1, 0, 0, x);
  const Fingerprint b = make_fingerprint(1, 1, 1, 0, 0, 0.3);
  EXPECT_NE(a, b);
  EXPECT_NE(fingerprint_diff(a, b).find("overallocate_bits"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
