// Counting global operator new for the traced runs: the benchmark reads the
// count around each timed call to report `<stage>.heap_allocs`. Counting is
// off (one relaxed load per allocation) until Enable(true).
#pragma once

#include <cstdint>

namespace qcap::perfbench::heap {

void Enable(bool on);
/// Leaves the calling thread's allocations out of the count while \p on
/// (a load generator sharing the process with the server it measures).
void IgnoreThisThread(bool on);
/// Allocations made through operator new since the process started while
/// counting was enabled.
uint64_t Count();

}  // namespace qcap::perfbench::heap
