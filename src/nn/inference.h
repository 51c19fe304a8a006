#ifndef AWMOE_NN_INFERENCE_H_
#define AWMOE_NN_INFERENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mat/kernels.h"
#include "mat/matrix.h"
#include "mat/view.h"

namespace awmoe {

// The allocation-free inference substrate behind Ranker::ScoreInto.
//
// The training path builds an autograd graph: every op heap-allocates a
// node, a value matrix and (lazily) a gradient. The serving hot path
// needs none of that — shapes are fixed per model and bounded by the
// micro-batch cap, so every intermediate can live in a reusable arena
// owned by an InferenceWorkspace, and every kernel can write into a
// caller-provided buffer.
//
// KERNEL TIERS: the hot kernels (MatMulInto, ReluInPlace,
// AddBiasInPlace, SigmoidSpanInto) dispatch through a process-global
// KernelDispatchTable with two tiers.
//
//  - kReference — BITWISE CONTRACT: its table entries are the scalar
//    view kernels of mat/kernels.h, the same functions the Matrix ops
//    (and so the autograd ops) call. The module-level InferInto methods
//    materialise one buffer per op of the original Var expression
//    instead of fusing, so ScoreInto reproduces InferenceLogits bit for
//    bit — regression-tested in tests/models/inference_path_test.cc.
//  - kFast — EPSILON CONTRACT: AVX2/FMA cache-tiled kernels
//    (src/nn/kernels_fast.cc). FMA contraction and register-blocked
//    accumulation reassociate the float sums, so results agree with
//    the reference tier only to an epsilon/ULP bound
//    (tests/models/kernel_tier_test.cc). Per-row / per-element
//    arithmetic is still independent of micro-batch composition (the
//    tail lanes run the SAME vector arithmetic through a masked
//    staging buffer), so a given row scores bitwise-identically no
//    matter how the serving engine fuses sessions — the invariant the
//    shard/rollout bitwise storm tests rely on.
//
// The tier is resolved once per process: AWMOE_FORCE_SCALAR (any value
// but "" or "0") pins the reference tier; otherwise the fast tier is
// used when the binary carries it and CPUID reports AVX2+FMA. Tests
// pin tiers explicitly with ScopedKernelTier.

/// A 64-byte-aligned float buffer that only ever grows (no content
/// preservation across grows — it backs scratch slabs). Alignment is an
/// invariant the fast kernel tier depends on: every slab base (and,
/// with padded strides, every row) is legal for aligned AVX2/AVX-512
/// loads and stores.
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;  // One cache line.
  static_assert(kAlignment % sizeof(float) == 0 &&
                    kAlignment >= alignof(float),
                "slab alignment must cover float lanes");

  AlignedBuffer() = default;
  ~AlignedBuffer() { Release(); }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grows capacity to at least `floats` (geometric, so repeated
  /// one-larger warmups do not thrash). Discards previous contents
  /// unless `preserve` is set, in which case the old floats are copied
  /// into the new buffer.
  void Reserve(size_t floats, bool preserve = false);

  float* data() const { return data_; }
  size_t capacity() const { return capacity_; }

 private:
  void Release();

  float* data_ = nullptr;
  size_t capacity_ = 0;  // In floats.
};

/// Bump allocator over persistent float slabs. Alloc() hands out the
/// next slab (grown in place when too small, so a warmed arena
/// allocates nothing); Reset() rewinds to the first slab for the next
/// forward. Mark()/Rewind() scope the per-sequence-position
/// temporaries of a behaviour loop so ten positions reuse one
/// iteration's buffers instead of ten — a mark taken before a slab
/// spill stays a plain slab index, so rewinding past later-materialised
/// slabs is safe and the slabs (and their grown capacities) are kept
/// for reuse.
///
/// ALIGNMENT INVARIANT: every slab base is 64-byte aligned and every
/// returned view's row stride is padded to a 64-byte multiple
/// (kAlignFloats), so view.row(r) is 64-byte aligned for all r. The
/// padding lanes are never read or written by kernels (all kernels
/// iterate c < cols), so the bitwise contract is unaffected.
class InferenceArena {
 public:
  static constexpr int64_t kAlignFloats =
      static_cast<int64_t>(AlignedBuffer::kAlignment / sizeof(float));

  MatView Alloc(int64_t rows, int64_t cols);
  void Reset() { next_ = 0; }
  size_t Mark() const { return next_; }
  void Rewind(size_t mark) {
    AWMOE_DCHECK(mark <= next_) << "Rewind past cursor";
    next_ = mark;
  }
  /// Slabs currently materialised (test introspection).
  size_t num_slabs() const { return slabs_.size(); }

 private:
  std::vector<AlignedBuffer> slabs_;
  size_t next_ = 0;
};

/// Preallocated per-lane state of the ScoreInto path: the activation
/// arena plus persistent staging buffers the serving engine uses for
/// gate rows (replicated per candidate) and gate-probe outputs. Created
/// by Ranker::CreateInferenceWorkspace, owned by whoever owns the lane
/// (each ModelPool replica lane holds its own, so lanes stay lock-free
/// against each other and cache-warm across micro-batches). Buffers
/// only ever grow: after one warm-up pass at a given batch size the
/// steady state performs zero heap allocations.
class InferenceWorkspace {
 public:
  /// kGateRows/kGateProbe stage shared gate rows; kSessionRows/
  /// kSessionProbe stage cached session encodings (feature store) the
  /// same way: probe outputs computed once per session, then replicated
  /// per candidate into the rows slot.
  enum StagingSlot {
    kGateRows = 0,
    kGateProbe = 1,
    kSessionRows = 2,
    kSessionProbe = 3,
    kNumSlots = 4,
  };

  explicit InferenceWorkspace(int64_t max_candidates)
      : max_candidates_(max_candidates) {
    AWMOE_CHECK(max_candidates > 0)
        << "InferenceWorkspace: max_candidates " << max_candidates;
  }

  int64_t max_candidates() const { return max_candidates_; }
  InferenceArena* arena() { return &arena_; }

  /// Persistent staging buffer for `slot`, grown to at least `n`
  /// floats. 64-byte aligned (AlignedBuffer), like the arena slabs, so
  /// staged gate rows are as legal for the fast kernel tier as any
  /// arena view. Growth preserves existing contents (matching the
  /// std::vector::resize semantics this buffer replaced).
  std::span<float> Staging(StagingSlot slot, int64_t n);

 private:
  int64_t max_candidates_;
  InferenceArena arena_;
  AlignedBuffer staging_[kNumSlots];
};

// ---------------------------------------------------------------------
// Kernel tiers (see the file comment for the exact-vs-epsilon
// contract).
// ---------------------------------------------------------------------

enum class KernelTier {
  kReference = 0,  // Scalar: the mat/kernels.h view kernels.
  kFast = 1,       // AVX2/FMA cache-tiled; epsilon-bounded.
};

/// Function-pointer table of one tier's hot kernels (H2Pack-style: the
/// variants and their metadata live in one place, callers dispatch
/// through ActiveKernels()). Shape checks stay in the public wrappers,
/// so implementations assume validated views.
struct KernelDispatchTable {
  const char* name = "";     // "reference-scalar" / "avx2-fma".
  bool bitwise_reference = false;

  /// out = a[m,k] * w[k,n] (out fully overwritten).
  void (*matmul)(const ConstMatView& a, const Matrix& w, MatView out) =
      nullptr;
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
/// benches; not synchronised against in-flight forwards, so call it
/// only while no other thread is scoring.
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

/// Optional intra-batch row parallelism for MatMulInto: when `threads`
/// > 1, matmuls with enough rows split their row range over a
/// persistent worker pool. Because every row's arithmetic is
/// independent and position-invariant in BOTH tiers, the parallel
/// result is bitwise identical to the serial one at the same tier.
/// Default 0 (off); AWMOE_KERNEL_THREADS seeds it at tier resolution.
/// Like SetKernelTier, not synchronised against in-flight forwards.
void SetKernelRowParallelism(int threads);
int KernelRowParallelism();

/// FLOP count of one MatMul (for GFLOPS reporting in benches).
constexpr double MatMulFlops(int64_t m, int64_t k, int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

// ---------------------------------------------------------------------
// Tier-dispatched kernels. The scalar view kernels (CopyInto, MulInto,
// SoftmaxRowsInto, MatMulViewInto, ...) live in mat/kernels.h and run
// the same code at every tier.
// ---------------------------------------------------------------------

/// out = a[m,k] * w[k,n]; the reference tier is MatMulViewInto (MatMul's
/// loop).
void MatMulInto(const ConstMatView& a, const Matrix& w, MatView out);

/// a[m,n] += bias[1,n] broadcast over rows (AddRowBroadcast, in place).
void AddBiasInPlace(MatView a, const Matrix& bias);

/// a = max(a, 0) elementwise.
void ReluInPlace(MatView a);

/// Multiplies each row by its top-k mask (TopKMaskRowsInto, the rule
/// TopKMaskRows uses): a multiply, not an assignment, so signed zeros
/// match MulMask(g, TopKMaskRows(g, k)) bitwise. The mask lives in
/// arena scratch.
void TopKMulInPlace(MatView a, int64_t k, InferenceArena* arena);

/// out[i] = sigmoid(x[i]) over contiguous spans (in-place allowed when
/// out.data() == x.data()). Dispatches through the active tier: the
/// reference tier is SigmoidInto (Sigmoid(Matrix)'s loop); the fast
/// tier runs a vectorised exp polynomial whose per-element result is
/// independent of the element's position in the span.
void SigmoidSpanInto(std::span<const float> x, std::span<float> out);

}  // namespace awmoe

#endif  // AWMOE_NN_INFERENCE_H_
