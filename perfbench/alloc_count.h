/**
 * @file
 * Heap-allocation counter for the benchmark binary.
 *
 * alloc_count.cc replaces the global operator new of this executable
 * (and of nothing else): every allocation bumps one process-wide counter
 * while counting is switched on.  Counts are exact and independent of
 * the host, so a change that removes a per-event allocation shows up as
 * a whole-number drop, not as a timing within noise.
 */
#ifndef PERFBENCH_ALLOC_COUNT_H
#define PERFBENCH_ALLOC_COUNT_H

#include <cstdint>

namespace perfbench {

/// Start (true) or stop (false) counting allocations.
void setAllocCounting(bool on);

/// Allocations counted so far, all threads.
std::uint64_t allocationCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_H
