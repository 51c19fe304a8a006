#ifndef AWMOE_MAT_KERNEL_TIER_H_
#define AWMOE_MAT_KERNEL_TIER_H_

#include <cstdint>

#include "mat/matrix.h"
#include "mat/view.h"

namespace awmoe {

// KERNEL TIERS: every matrix product in the library (the autograd
// graph's forward and both gradients, the graph-free inference path and
// the listwise slate core) and the hot inference activations dispatch
// through a process-global KernelDispatchTable with two tiers.
//
//  - kReference — BITWISE CONTRACT: scalar loops (the products live in
//    kernel_tier.cc, the activations are the mat/kernels.h view
//    kernels). Training at this tier is the library's historical
//    arithmetic, bit for bit.
//  - kFast — EPSILON CONTRACT: AVX2/FMA register-blocked kernels
//    (src/mat/kernels_fast.cc). FMA contraction and blocked
//    accumulation reassociate float sums, so results agree with the
//    reference tier only to an epsilon/ULP bound
//    (tests/models/kernel_tier_test.cc). Each kernel is deterministic
//    per shape (its blocking is one constant tiling config in
//    kernels_fast.cc, never a function of thread count or batch split),
//    and matmul / matmul_nt keep each output row's arithmetic
//    independent of the other rows.
//
// Because the graph and the inference path call the same entries, they
// agree bitwise at either tier.
//
// The tier is resolved once per process: AWMOE_FORCE_SCALAR (any value
// but "" or "0") pins the reference tier; otherwise the fast tier is
// used when the binary carries it and CPUID reports AVX2+FMA. Tests
// pin tiers explicitly with ScopedKernelTier.

enum class KernelTier {
  kReference = 0,  // Scalar loops.
  kFast = 1,       // AVX2/FMA register-blocked; epsilon-bounded.
};

/// Function-pointer table of one tier's kernels (H2Pack-style: the
/// variants and their metadata live in one place, callers dispatch
/// through ActiveKernels()). Shape checks stay in the public wrappers
/// (mat/kernels.h, nn/inference.h), so implementations assume
/// validated views. Products fully overwrite `out`, which must not
/// alias an input.
struct KernelDispatchTable {
  const char* name = "";  // "reference-scalar" / "avx2-fma".
  bool bitwise_reference = false;

  /// out[m,n] = a[m,k] * b[k,n].
  void (*matmul)(const ConstMatView& a, const ConstMatView& b,
                 MatView out) = nullptr;
  /// out[m,n] = a[m,k] * b[n,k]^T (the input gradient dX = dY W^T).
  void (*matmul_nt)(const ConstMatView& a, const ConstMatView& b,
                    MatView out) = nullptr;
  /// out[m,n] = a[k,m]^T * b[k,n] (the weight gradient dW = X^T dY, a
  /// reduction over batch rows).
  void (*matmul_tn)(const ConstMatView& a, const ConstMatView& b,
                    MatView out) = nullptr;
  /// a[m,n] += bias[1,n] broadcast over rows.
  void (*add_bias)(MatView a, const Matrix& bias) = nullptr;
  /// a = max(a, 0) elementwise.
  void (*relu)(MatView a) = nullptr;
  /// out[i] = sigmoid(x[i]) over a contiguous span (x and out may
  /// alias exactly).
  void (*sigmoid_span)(const float* x, float* out, int64_t n) = nullptr;
};

/// True when the fast tier is both compiled in (kernels_fast.cc built
/// with AVX2/FMA) and runnable on this CPU (CPUID reports avx2+fma).
bool FastKernelTierAvailable();

/// The active tier. Resolved once on first kernel use:
/// AWMOE_FORCE_SCALAR in the environment pins kReference, otherwise
/// kFast when available.
KernelTier ActiveKernelTier();

/// Overrides the active tier process-wide. CHECK-fails when asked for
/// kFast on a machine/build without it. Intended for tests and
/// benches; not synchronised against in-flight kernels, so call it
/// only while no other thread is scoring or training.
void SetKernelTier(KernelTier tier);

const char* KernelTierName(KernelTier tier);

/// The dispatch table of `tier` (CHECK-fails for an unavailable tier)
/// / of the active tier.
const KernelDispatchTable& GetKernelTable(KernelTier tier);
const KernelDispatchTable& ActiveKernels();

/// Pure tier-resolution rule, exposed for unit tests: `force_scalar`
/// is the raw AWMOE_FORCE_SCALAR value (nullptr = unset; "" and "0"
/// mean unset).
KernelTier ResolveKernelTier(const char* force_scalar, bool fast_available);

/// RAII tier pin for tests/benches: sets `tier` for its scope and
/// restores the previous one.
class ScopedKernelTier {
 public:
  explicit ScopedKernelTier(KernelTier tier) : previous_(ActiveKernelTier()) {
    SetKernelTier(tier);
  }
  ~ScopedKernelTier() { SetKernelTier(previous_); }
  ScopedKernelTier(const ScopedKernelTier&) = delete;
  ScopedKernelTier& operator=(const ScopedKernelTier&) = delete;

 private:
  KernelTier previous_;
};

}  // namespace awmoe

#endif  // AWMOE_MAT_KERNEL_TIER_H_
