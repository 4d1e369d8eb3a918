// Heap-allocation counter for the benchmark binary. Global operator
// new is replaced in alloc_counter.cpp; each allocation is counted
// against the load generator when the allocating thread has called
// markGeneratorThread(), and against the system under test otherwise.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t system = 0;
  uint64_t generator = 0;
};

AllocCounts allocCounts() noexcept;
void markGeneratorThread() noexcept;

}  // namespace perfbench
