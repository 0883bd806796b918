// Bench-side span recorder.
//
// The benchmark wraps each call into a layer of the simulator (catalog
// generation, cluster build, placement, scheduling, the simulate phases,
// metric extraction) in a span: name, host start/end, the enclosing span
// and the id of the simulated run it belongs to. Spans also carry the heap
// allocations made while they were open. Everything stays in memory and is
// written out once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     // static string: layer call being timed
  std::int64_t start_ns = 0;  // host time since the recorder was created
  std::int64_t end_ns = -1;   // -1 while the span is open
  std::int32_t parent = -1;   // index of the enclosing span, -1 at top level
  std::uint32_t run = 0;      // simulated run the span belongs to
  std::uint64_t allocs = 0;   // heap allocations made while open

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Open a span nested in the innermost open one; returns its index.
  std::int32_t begin(const char* name, std::uint32_t run);
  /// Close span `id`, which must be the innermost open span.
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t now_ns() const;

  /// Duration minus the time covered by direct children, per span.
  [[nodiscard]] std::vector<std::int64_t> self_times_ns() const;

  /// Write every span as one JSON document ({"spans": [...]}, self time
  /// included). Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; `elapsed_s()` reads the span's length once it has closed.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint32_t run)
      : recorder_{recorder}, id_{recorder.begin(name, run)} {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close early (idempotent); returns the span's duration in seconds.
  double close();

 private:
  SpanRecorder& recorder_;
  std::int32_t id_;
  bool open_ = true;
};

}  // namespace perfbench
