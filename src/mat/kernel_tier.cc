#include "mat/kernel_tier.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "mat/kernels.h"
#include "mat/kernels_fast.h"

namespace awmoe {

namespace {

// ---------------------------------------------------------------------
// The reference tier. The three product loops below are the only
// scalar matmul loops in the library; everything else reaches them
// through the table. The activations are the mat/kernels.h view
// kernels themselves, adapted to the table's signatures (in place =
// exact aliasing).
// ---------------------------------------------------------------------

/// out = a * b: zeroes each out row, then accumulates in ikj order,
/// skipping zero `a` elements.
void ReferenceMatMul(const ConstMatView& a, const ConstMatView& b,
                     MatView out) {
  const int64_t m = a.rows, k = a.cols, n = b.cols;
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = out.row(i);
    std::fill(crow, crow + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float aip = arow[p];
      if (aip == 0.0f) continue;
      const float* brow = b.row(p);
      for (int64_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

/// out = a * b^T: one i/j/p dot product per output element.
void ReferenceMatMulNT(const ConstMatView& a, const ConstMatView& b,
                       MatView out) {
  const int64_t m = a.rows, k = a.cols, n = b.rows;
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = out.row(i);
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

/// out = a^T * b: zeroes out, then accumulates in pij order (one pass
/// over the shared rows), skipping zero `a` elements.
void ReferenceMatMulTN(const ConstMatView& a, const ConstMatView& b,
                       MatView out) {
  const int64_t k = a.rows, m = a.cols, n = b.cols;
  for (int64_t i = 0; i < m; ++i) std::fill(out.row(i), out.row(i) + n, 0.0f);
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int64_t i = 0; i < m; ++i) {
      const float api = arow[i];
      if (api == 0.0f) continue;
      float* crow = out.row(i);
      for (int64_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

constexpr KernelDispatchTable kReferenceTable = {
    /*name=*/"reference-scalar",
    /*bitwise_reference=*/true,
    /*matmul=*/ReferenceMatMul,
    /*matmul_nt=*/ReferenceMatMulNT,
    /*matmul_tn=*/ReferenceMatMulTN,
    /*add_bias=*/
    [](MatView a, const Matrix& bias) {
      AddRowBroadcastInto(a, MatrixView(bias), a);
    },
    /*relu=*/[](MatView a) { ReluInto(a, a); },
    /*sigmoid_span=*/SigmoidInto,
};

// ---------------------------------------------------------------------
// Tier resolution and dispatch state.
// ---------------------------------------------------------------------

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// Active tier; -1 = not resolved yet. Benign first-use race: every
/// resolver computes the same value.
std::atomic<int> g_active_tier{-1};

}  // namespace

bool FastKernelTierAvailable() {
  return FastKernelTableOrNull() != nullptr && CpuSupportsAvx2Fma();
}

KernelTier ResolveKernelTier(const char* force_scalar, bool fast_available) {
  const bool forced = force_scalar != nullptr && force_scalar[0] != '\0' &&
                      !(force_scalar[0] == '0' && force_scalar[1] == '\0');
  if (forced || !fast_available) return KernelTier::kReference;
  return KernelTier::kFast;
}

KernelTier ActiveKernelTier() {
  int tier = g_active_tier.load(std::memory_order_acquire);
  if (tier < 0) {
    tier = static_cast<int>(ResolveKernelTier(
        std::getenv("AWMOE_FORCE_SCALAR"), FastKernelTierAvailable()));
    g_active_tier.store(tier, std::memory_order_release);
  }
  return static_cast<KernelTier>(tier);
}

void SetKernelTier(KernelTier tier) {
  if (tier == KernelTier::kFast) {
    AWMOE_CHECK(FastKernelTierAvailable())
        << "fast kernel tier not available on this build/CPU";
  }
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
}

const char* KernelTierName(KernelTier tier) {
  return GetKernelTable(tier).name;
}

const KernelDispatchTable& GetKernelTable(KernelTier tier) {
  if (tier == KernelTier::kFast) {
    const KernelDispatchTable* fast = FastKernelTableOrNull();
    AWMOE_CHECK(fast != nullptr) << "fast kernel tier not compiled in";
    return *fast;
  }
  return kReferenceTable;
}

const KernelDispatchTable& ActiveKernels() {
  return GetKernelTable(ActiveKernelTier());
}

}  // namespace awmoe
