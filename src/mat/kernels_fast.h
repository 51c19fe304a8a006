#ifndef AWMOE_MAT_KERNELS_FAST_H_
#define AWMOE_MAT_KERNELS_FAST_H_

#include "mat/kernel_tier.h"

namespace awmoe {

// Internal bridge between the dispatch layer (kernel_tier.cc, compiled
// with the portable baseline flags) and the AVX2/FMA kernel TU
// (kernels_fast.cc, the ONLY file built with -mavx2 -mfma; CMake
// scopes the flags to it so the rest of the binary stays runnable on
// any x86-64). The dispatch layer performs the CPUID check itself and
// only ever jumps through this table after it passes, so no AVX2
// instruction can execute on a machine without it.

/// The fast tier's dispatch table, or nullptr when kernels_fast.cc was
/// compiled without AVX2/FMA support (non-x86 target or a compiler
/// without the flags). Constant-initialised — taking the pointer runs
/// no code from the AVX2 TU.
const KernelDispatchTable* FastKernelTableOrNull();

}  // namespace awmoe

#endif  // AWMOE_MAT_KERNELS_FAST_H_
