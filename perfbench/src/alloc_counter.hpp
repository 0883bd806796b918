// Counting global allocator for the benchmark binary.
//
// alloc_counter.cpp replaces every form of the global operator new/delete
// with malloc/free plus one relaxed counter increment, so each phase of a
// run can report exactly how many heap allocations it made (the count
// repeats bit for bit for a fixed seed). The counter is process-wide; the
// benchmark runs one simulation thread.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new since the process started.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench
