// Unit tests for the span recorder (nesting, self time, allocation counts,
// output file) and the counting allocator.
#include "spans.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "alloc_counter.hpp"

namespace perfbench {
namespace {

TEST(AllocCounter, CountsEveryOperatorNew) {
  const std::uint64_t before = allocation_count();
  {
    auto a = std::make_unique<int>(1);
    auto b = std::make_unique<int[]>(8);
    std::string s(100, 'x');  // beyond the small-string buffer
    EXPECT_EQ(*a, 1);
    b[0] = 2;
    EXPECT_EQ(s.size(), 100u);
  }
  EXPECT_EQ(allocation_count() - before, 3u);
}

TEST(SpanRecorder, NestsSpansAndComputesSelfTime) {
  SpanRecorder r;
  const std::int32_t outer = r.begin("outer", 7);
  const std::int32_t inner = r.begin("inner", 7);
  r.end(inner);
  const std::int32_t second = r.begin("second", 7);
  r.end(second);
  r.end(outer);
  const std::vector<Span>& s = r.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, outer);
  EXPECT_EQ(s[2].parent, outer);
  EXPECT_EQ(s[1].run, 7u);
  const std::vector<std::int64_t> self = r.self_times_ns();
  EXPECT_EQ(self[0], s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns());
  EXPECT_EQ(self[1], s[1].duration_ns());
  EXPECT_GE(self[0], 0);
}

TEST(SpanRecorder, CountsAllocationsInsideASpan) {
  SpanRecorder r;
  const std::int32_t id = r.begin("alloc", 0);
  { auto p = std::make_unique<double>(1.0); EXPECT_EQ(*p, 1.0); }
  r.end(id);
  EXPECT_EQ(r.spans()[0].allocs, 1u);
}

TEST(SpanRecorder, ScopedSpanClosesOnceAndReportsSeconds) {
  SpanRecorder r;
  double seconds = -1.0;
  {
    ScopedSpan s{r, "scoped", 1};
    seconds = s.close();
    EXPECT_EQ(s.close(), seconds);
  }
  ASSERT_EQ(r.spans().size(), 1u);
  EXPECT_GE(seconds, 0.0);
  EXPECT_GE(r.spans()[0].end_ns, r.spans()[0].start_ns);
}

TEST(SpanRecorder, WritesEverySpanToJson) {
  SpanRecorder r;
  { ScopedSpan a{r, "setup", 3}; ScopedSpan b{r, "workload.generate_catalog", 3}; }
  const std::string path = ::testing::TempDir() + "perfbench_spans_test.json";
  ASSERT_TRUE(r.write_json(path));
  std::ifstream in{path};
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"name\": \"workload.generate_catalog\", \"run\": 3, \"parent\": 0"),
            std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(r.write_json("/nonexistent-dir/spans.json"));
}

TEST(SpanRecorderDeathTest, ClosingOutOfOrderAborts) {
  SpanRecorder r;
  const std::int32_t outer = r.begin("outer", 0);
  r.begin("inner", 0);
  EXPECT_DEATH(r.end(outer), "out of order");
}

}  // namespace
}  // namespace perfbench
