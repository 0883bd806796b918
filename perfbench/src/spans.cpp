#include "spans.hpp"

#include <cstdio>
#include <cstdlib>

#include "alloc_counter.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_{std::chrono::steady_clock::now()} {
  // Reserved up front so recording a span does not itself allocate inside
  // the phase it measures (spans count allocations).
  spans_.reserve(1U << 16);
  open_.reserve(64);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

std::int32_t SpanRecorder::begin(const char* name, std::uint32_t run) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run;
  s.allocs = allocation_count();
  s.start_ns = now_ns();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    std::abort();
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.allocs = allocation_count() - s.allocs;
}

std::vector<std::int64_t> SpanRecorder::self_times_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_ns();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_times_ns();
  std::fprintf(f, "{\"clock\": \"host steady_clock ns\", \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"run\": %u, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, \"allocs\": %llu}%s\n",
                 i, s.name, s.run, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(self[i]),
                 static_cast<unsigned long long>(s.allocs), i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double ScopedSpan::close() {
  if (open_) {
    recorder_.end(id_);
    open_ = false;
  }
  return static_cast<double>(recorder_.spans()[static_cast<std::size_t>(id_)].duration_ns()) /
         1e9;
}

}  // namespace perfbench
