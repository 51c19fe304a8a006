#ifndef AWMOE_TESTS_SUPPORT_ALLOC_COUNTER_H_
#define AWMOE_TESTS_SUPPORT_ALLOC_COUNTER_H_

#include <cstdint>

namespace awmoe {

// Heap-allocation counting for the zero-allocation tests and
// bench_inference_path. A binary that links tests/support/alloc_counter.cc
// replaces every global operator new/delete form (plain, array, nothrow,
// and their std::align_val_t variants, which AlignedBuffer's arena slabs
// and staging buffers use) with counting ones. The replacement is
// process-wide, so such a binary should allocate on one thread while it
// counts.
//
// The operators live in a translation unit of their own, with no
// new-expressions in it. Defined next to their callers, GCC 12 inlines a
// replaced operator delete (and so its free()) into code whose operator
// new call it did not inline, and then reports a false
// -Wmismatched-new-delete at every such site.

/// Calls to any replaced operator new since the process started.
int64_t HeapAllocationCount();

/// Counts the heap allocations made while it is alive.
class CountingScope {
 public:
  CountingScope() : start_(HeapAllocationCount()) {}
  int64_t count() const { return HeapAllocationCount() - start_; }

 private:
  int64_t start_;
};

}  // namespace awmoe

#endif  // AWMOE_TESTS_SUPPORT_ALLOC_COUNTER_H_
