// The fast kernel tier: AVX2/FMA register-blocked implementations of
// every matrix product (the graph's forward and both gradients, the
// inference path, the listwise slate core) and the hot inference
// activations. This is the ONLY translation unit compiled with -mavx2
// -mfma (CMake scopes the flags to it); the dispatch layer in
// kernel_tier.cc checks CPUID before ever jumping through the table
// below, so the binary stays runnable on plain x86-64.
//
// Numerics: FMA contraction and register-blocked accumulation
// reassociate float sums, so this tier matches the reference tier only
// to the epsilon/ULP bound pinned by tests/models/kernel_tier_test.cc.
// What IS preserved exactly:
//   - determinism per shape: the blocking is the constant kTiling, so
//     the same operands give the same bits on every call, whatever the
//     thread count or the batch split around the call;
//   - batch-composition independence of matmul and matmul_nt: a row's
//     (or span element's) arithmetic depends only on the layer shape,
//     never on the batch size or the row's position —
//       - the 4-row and 1-row matmul micro-kernels issue the SAME
//         per-row FMA sequence (same column panels, same p order);
//       - every matmul_nt output element owns one accumulator fed the
//         same chunk sequence and reduced in one fixed order, whichever
//         block it lands in;
//       - column tails run the same vector arithmetic through lane
//         masks;
//       - the sigmoid span tail runs the same vector polynomial through
//         a padded staging vector.
// This is the invariant that keeps serving scores bitwise-stable under
// micro-batch fusion (shard/rollout storm tests compare scores across
// differently composed batches) even on the epsilon tier.

#include "mat/kernels_fast.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace awmoe {
namespace {

/// Lane mask with the first `lanes` (0..8) of 8 lanes active.
inline __m256i TailMask(int64_t lanes) {
  alignas(32) static constexpr int32_t kMask[16] = {-1, -1, -1, -1, -1, -1,
                                                    -1, -1, 0,  0,  0,  0,
                                                    0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + (8 - lanes)));
}

// ---------------------------------------------------------------------
// The one tiling config (SNIPPETS.md snippet 2's KCfg idiom): matmul and
// matmul_tn run `rows` output rows x one `cols`-wide column panel per
// micro-kernel; matmul_nt runs `nt_rows` rows of a x `nt_cols` rows of
// b. The micro-kernels below are unrolled for exactly these values, and
// nothing else picks a block size, so a product's arithmetic is a
// function of its shape alone.
// ---------------------------------------------------------------------

struct Tiling {
  int64_t rows;
  int64_t cols;
  int64_t nt_rows;
  int64_t nt_cols;
};

constexpr Tiling kTiling = {/*rows=*/4, /*cols=*/16, /*nt_rows=*/2,
                            /*nt_cols=*/4};

// ---------------------------------------------------------------------
// Panel products: out[i,:] = sum_p A(i,p) * b[p,:], where output row i
// reads A(i,p) at (row i's base)[p * step]. matmul passes the rows of a
// (step 1); matmul_tn passes the columns of a (step = a.stride), so the
// weight gradient a^T * b runs the same micro-kernels without a
// transposed copy.
//
// Cache tiling: the outer loop walks 16-column panels of b; one panel
// (k x 16 floats, <= 32 KiB even at the paper-scale k = 512) stays in
// L1 while EVERY output row streams against it. Register blocking: four
// rows x 16 columns of out live in 8 ymm accumulators across the whole
// k loop, so out is touched once per panel instead of once per k step
// (the reference kernel's store-per-p pattern), and each loaded b
// vector feeds four rows' FMAs.
// ---------------------------------------------------------------------

/// One row x one 16-column panel; identical FMA sequence to Rows4's
/// per-row arithmetic. kFull avoids the mask loads on interior panels;
/// kUnitStep lets the compiler see matmul's contiguous rows.
template <bool kFull, bool kUnitStep>
inline void PanelRows1(const float* arow, int64_t step, const ConstMatView& b,
                       int64_t k, int64_t j, __m256i mask0, __m256i mask1,
                       float* orow) {
  const int64_t s = kUnitStep ? 1 : step;
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b.row(p) + j;
    const __m256 b0 =
        kFull ? _mm256_loadu_ps(brow) : _mm256_maskload_ps(brow, mask0);
    const __m256 b1 = kFull ? _mm256_loadu_ps(brow + 8)
                            : _mm256_maskload_ps(brow + 8, mask1);
    const __m256 av = _mm256_broadcast_ss(arow + p * s);
    acc0 = _mm256_fmadd_ps(av, b0, acc0);
    acc1 = _mm256_fmadd_ps(av, b1, acc1);
  }
  if (kFull) {
    _mm256_storeu_ps(orow + j, acc0);
    _mm256_storeu_ps(orow + j + 8, acc1);
  } else {
    _mm256_maskstore_ps(orow + j, mask0, acc0);
    _mm256_maskstore_ps(orow + j + 8, mask1, acc1);
  }
}

/// Four rows x one 16-column panel.
template <bool kFull, bool kUnitStep>
inline void PanelRows4(const float* a0, const float* a1, const float* a2,
                       const float* a3, int64_t step, const ConstMatView& b,
                       int64_t k, int64_t j, __m256i mask0, __m256i mask1,
                       float* o0, float* o1, float* o2, float* o3) {
  const int64_t s = kUnitStep ? 1 : step;
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b.row(p) + j;
    const __m256 b0 =
        kFull ? _mm256_loadu_ps(brow) : _mm256_maskload_ps(brow, mask0);
    const __m256 b1 = kFull ? _mm256_loadu_ps(brow + 8)
                            : _mm256_maskload_ps(brow + 8, mask1);
    const int64_t off = p * s;
    __m256 av = _mm256_broadcast_ss(a0 + off);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_broadcast_ss(a1 + off);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_broadcast_ss(a2 + off);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_broadcast_ss(a3 + off);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
  }
  if (kFull) {
    _mm256_storeu_ps(o0 + j, acc00);
    _mm256_storeu_ps(o0 + j + 8, acc01);
    _mm256_storeu_ps(o1 + j, acc10);
    _mm256_storeu_ps(o1 + j + 8, acc11);
    _mm256_storeu_ps(o2 + j, acc20);
    _mm256_storeu_ps(o2 + j + 8, acc21);
    _mm256_storeu_ps(o3 + j, acc30);
    _mm256_storeu_ps(o3 + j + 8, acc31);
  } else {
    _mm256_maskstore_ps(o0 + j, mask0, acc00);
    _mm256_maskstore_ps(o0 + j + 8, mask1, acc01);
    _mm256_maskstore_ps(o1 + j, mask0, acc10);
    _mm256_maskstore_ps(o1 + j + 8, mask1, acc11);
    _mm256_maskstore_ps(o2 + j, mask0, acc20);
    _mm256_maskstore_ps(o2 + j + 8, mask1, acc21);
    _mm256_maskstore_ps(o3 + j, mask0, acc30);
    _mm256_maskstore_ps(o3 + j + 8, mask1, acc31);
  }
}

/// Output row i reads its left-operand values from a + i * row_step,
/// element p at p * step from there.
template <bool kUnitStep>
void PanelProduct(const float* a, int64_t row_step, int64_t step, int64_t m,
                  int64_t k, const ConstMatView& b, MatView out) {
  static_assert(kTiling.rows == 4 && kTiling.cols == 16,
                "PanelRows4 is unrolled for 4 rows x 16 columns");
  const int64_t n = b.cols;
  for (int64_t j = 0; j < n; j += kTiling.cols) {
    const int64_t lanes0 = std::min<int64_t>(8, n - j);
    const int64_t lanes1 = std::max<int64_t>(
        0, std::min<int64_t>(8, n - j - 8));
    const bool full = lanes0 == 8 && lanes1 == 8;
    // Masked lanes of a vmaskmovps neither fault nor touch memory, so
    // the tail panel may run the full two-vector arithmetic with the
    // second vector entirely masked off.
    const __m256i mask0 = TailMask(lanes0);
    const __m256i mask1 = TailMask(lanes1);
    int64_t i = 0;
    for (; i + kTiling.rows <= m; i += kTiling.rows) {
      const float* a0 = a + i * row_step;
      if (full) {
        PanelRows4<true, kUnitStep>(
            a0, a0 + row_step, a0 + 2 * row_step, a0 + 3 * row_step, step, b,
            k, j, mask0, mask1, out.row(i), out.row(i + 1), out.row(i + 2),
            out.row(i + 3));
      } else {
        PanelRows4<false, kUnitStep>(
            a0, a0 + row_step, a0 + 2 * row_step, a0 + 3 * row_step, step, b,
            k, j, mask0, mask1, out.row(i), out.row(i + 1), out.row(i + 2),
            out.row(i + 3));
      }
    }
    for (; i < m; ++i) {
      if (full) {
        PanelRows1<true, kUnitStep>(a + i * row_step, step, b, k, j, mask0,
                                    mask1, out.row(i));
      } else {
        PanelRows1<false, kUnitStep>(a + i * row_step, step, b, k, j, mask0,
                                     mask1, out.row(i));
      }
    }
  }
}

/// out = a[m,k] * b[k,n].
void MatMulFast(const ConstMatView& a, const ConstMatView& b, MatView out) {
  PanelProduct</*kUnitStep=*/true>(a.data, a.stride, 1, a.rows, a.cols, b,
                                   out);
}

/// out = a[k,m]^T * b[k,n]: output row i is column i of a. The sum over
/// the k shared rows runs in row order inside one accumulator per
/// output element, so the reduction is fixed by the shape.
void MatMulTNFast(const ConstMatView& a, const ConstMatView& b, MatView out) {
  PanelProduct</*kUnitStep=*/false>(a.data, 1, a.stride, a.cols, a.rows, b,
                                    out);
}

// ---------------------------------------------------------------------
// Dot products: out = a[m,k] * b[n,k]^T. Each output element owns one
// 8-lane accumulator: FMAs over 8-float chunks of k in order, one
// masked chunk for the k % 8 tail, then the fixed horizontal-sum order
// below. Blocks of 2 rows of a x 4 rows of b share their loads; the
// row and column tails run the same per-element sequence one pair at a
// time.
// ---------------------------------------------------------------------

/// ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)): the one horizontal-sum order.
inline float HorizontalSum(__m256 v) {
  __m256 h = _mm256_hadd_ps(v, v);
  h = _mm256_hadd_ps(h, h);
  return _mm_cvtss_f32(_mm256_castps256_ps128(h)) +
         _mm_cvtss_f32(_mm256_extractf128_ps(h, 1));
}

/// Lane c = HorizontalSum(vc), bit for bit, for four accumulators.
inline __m128 HorizontalSum4(__m256 v0, __m256 v1, __m256 v2, __m256 v3) {
  const __m256 h =
      _mm256_hadd_ps(_mm256_hadd_ps(v0, v1), _mm256_hadd_ps(v2, v3));
  return _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
}

/// acc[r][c] = sum_p a_r[p] * b_c[p] for kRows rows of a and kCols rows
/// of b, as 8-lane partial sums.
template <int kRows, int kCols>
inline void DotBlock(const float* const (&arows)[kRows],
                     const float* const (&brows)[kCols], int64_t k,
                     __m256i tail_mask, __m256 (&acc)[kRows][kCols]) {
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) acc[r][c] = _mm256_setzero_ps();
  }
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256 av[kRows];
    for (int r = 0; r < kRows; ++r) av[r] = _mm256_loadu_ps(arows[r] + p);
    for (int c = 0; c < kCols; ++c) {
      const __m256 bv = _mm256_loadu_ps(brows[c] + p);
      for (int r = 0; r < kRows; ++r) {
        acc[r][c] = _mm256_fmadd_ps(av[r], bv, acc[r][c]);
      }
    }
  }
  if (p < k) {
    __m256 av[kRows];
    for (int r = 0; r < kRows; ++r) {
      av[r] = _mm256_maskload_ps(arows[r] + p, tail_mask);
    }
    for (int c = 0; c < kCols; ++c) {
      const __m256 bv = _mm256_maskload_ps(brows[c] + p, tail_mask);
      for (int r = 0; r < kRows; ++r) {
        acc[r][c] = _mm256_fmadd_ps(av[r], bv, acc[r][c]);
      }
    }
  }
}

/// kRows rows of out starting at row i.
template <int kRows>
void DotRows(const ConstMatView& a, const ConstMatView& b, int64_t i,
             __m256i tail_mask, MatView out) {
  static_assert(kTiling.nt_cols == 4, "HorizontalSum4 reduces 4 columns");
  const int64_t k = a.cols;
  const int64_t n = b.rows;
  const float* arows[kRows];
  for (int r = 0; r < kRows; ++r) arows[r] = a.row(i + r);
  int64_t j = 0;
  for (; j + kTiling.nt_cols <= n; j += kTiling.nt_cols) {
    const float* const brows[4] = {b.row(j), b.row(j + 1), b.row(j + 2),
                                   b.row(j + 3)};
    __m256 acc[kRows][4];
    DotBlock<kRows, 4>(arows, brows, k, tail_mask, acc);
    for (int r = 0; r < kRows; ++r) {
      _mm_storeu_ps(out.row(i + r) + j,
                    HorizontalSum4(acc[r][0], acc[r][1], acc[r][2],
                                   acc[r][3]));
    }
  }
  for (; j < n; ++j) {
    const float* const brows[1] = {b.row(j)};
    __m256 acc[kRows][1];
    DotBlock<kRows, 1>(arows, brows, k, tail_mask, acc);
    for (int r = 0; r < kRows; ++r) {
      out.row(i + r)[j] = HorizontalSum(acc[r][0]);
    }
  }
}

void MatMulNTFast(const ConstMatView& a, const ConstMatView& b, MatView out) {
  static_assert(kTiling.nt_rows == 2, "MatMulNTFast steps 2 rows of a");
  const __m256i tail_mask = TailMask(a.cols % 8);
  int64_t i = 0;
  for (; i + kTiling.nt_rows <= a.rows; i += kTiling.nt_rows) {
    DotRows<2>(a, b, i, tail_mask, out);
  }
  for (; i < a.rows; ++i) DotRows<1>(a, b, i, tail_mask, out);
}

// ---------------------------------------------------------------------
// Elementwise activations. Vector max/add are bitwise identical to
// their scalar forms, so these may mix vector bodies with scalar tails
// freely; only the sigmoid (polynomial exp) needs the padded tail.
// ---------------------------------------------------------------------

void AddBiasFast(MatView a, const Matrix& bias) {
  const float* pb = bias.data();
  const int64_t cols = a.cols;
  for (int64_t r = 0; r < a.rows; ++r) {
    float* arow = a.row(r);
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(
          arow + c,
          _mm256_add_ps(_mm256_loadu_ps(arow + c), _mm256_loadu_ps(pb + c)));
    }
    for (; c < cols; ++c) arow[c] = arow[c] + pb[c];
  }
}

void ReluFast(MatView a) {
  const __m256 zero = _mm256_setzero_ps();
  const int64_t cols = a.cols;
  for (int64_t r = 0; r < a.rows; ++r) {
    float* arow = a.row(r);
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      // max(x, +0) returns the second operand on ties, so -0.0 -> +0.0
      // exactly like the reference's `x > 0 ? x : 0`.
      _mm256_storeu_ps(arow + c,
                       _mm256_max_ps(_mm256_loadu_ps(arow + c), zero));
    }
    for (; c < cols; ++c) arow[c] = arow[c] > 0.0f ? arow[c] : 0.0f;
  }
}

/// Cephes-style expf polynomial (the avx_mathfun lineage): range-
/// reduce by log2(e) with a Cody-Waite split, degree-5 polynomial,
/// scale by 2^n through the exponent field. |error| is a few ULP over
/// the clamped range — inside the fast tier's epsilon contract.
inline __m256 Exp256(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647949f);
  const __m256 kLo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kP0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 kP1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 kP2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 kP3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 kP4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 kP5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(_mm256_max_ps(x, kLo), kHi);
  // n = round(x * log2(e)) via floor(x*log2e + 0.5).
  __m256 fx = _mm256_fmadd_ps(x, kLog2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  // x -= n * ln(2), split into two constants for precision.
  x = _mm256_fnmadd_ps(fx, kC1, x);
  x = _mm256_fnmadd_ps(fx, kC2, x);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 y = kP0;
  y = _mm256_fmadd_ps(y, x, kP1);
  y = _mm256_fmadd_ps(y, x, kP2);
  y = _mm256_fmadd_ps(y, x, kP3);
  y = _mm256_fmadd_ps(y, x, kP4);
  y = _mm256_fmadd_ps(y, x, kP5);
  y = _mm256_fmadd_ps(y, x2, _mm256_add_ps(x, one));
  // * 2^n.
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

/// Sign-split sigmoid mirroring StableSigmoid's structure: one exp of
/// -|x| (never overflows), then 1/(1+t) or t/(1+t) by sign.
inline __m256 Sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  // min(x, -x) == -|x|.
  const __m256 t = Exp256(_mm256_min_ps(x, _mm256_sub_ps(zero, x)));
  const __m256 denom = _mm256_add_ps(one, t);
  const __m256 pos = _mm256_div_ps(one, denom);
  const __m256 neg = _mm256_div_ps(t, denom);
  return _mm256_blendv_ps(neg, pos, _mm256_cmp_ps(x, zero, _CMP_GE_OQ));
}

void SigmoidSpanFast(const float* x, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Sigmoid256(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    // Padded staging so tail elements run the SAME vector polynomial
    // as interior ones — a logit's probability must not depend on its
    // position in the micro-batch.
    alignas(32) float tmp[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(tmp, x + i, static_cast<size_t>(n - i) * sizeof(float));
    _mm256_store_ps(tmp, Sigmoid256(_mm256_load_ps(tmp)));
    std::memcpy(out + i, tmp, static_cast<size_t>(n - i) * sizeof(float));
  }
}

constexpr KernelDispatchTable kFastTable = {
    /*name=*/"avx2-fma",
    /*bitwise_reference=*/false,
    /*matmul=*/MatMulFast,
    /*matmul_nt=*/MatMulNTFast,
    /*matmul_tn=*/MatMulTNFast,
    /*add_bias=*/AddBiasFast,
    /*relu=*/ReluFast,
    /*sigmoid_span=*/SigmoidSpanFast,
};

}  // namespace

const KernelDispatchTable* FastKernelTableOrNull() { return &kFastTable; }

}  // namespace awmoe

#else  // !(__AVX2__ && __FMA__)

namespace awmoe {

// Built without the AVX2/FMA flags (non-x86 target or unsupported
// compiler): the fast tier simply does not exist and dispatch stays on
// the reference tier.
const KernelDispatchTable* FastKernelTableOrNull() { return nullptr; }

}  // namespace awmoe

#endif
