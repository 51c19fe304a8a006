#include "nn/inference.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace awmoe {

// ---------------------------------------------------------------------
// Aligned storage.
// ---------------------------------------------------------------------

void AlignedBuffer::Reserve(size_t floats, bool preserve) {
  if (floats <= capacity_) return;
  // Geometric growth, like std::vector, so a warmup that creeps up in
  // batch size does not reallocate per step.
  const size_t new_capacity = std::max(floats, capacity_ * 2);
  float* fresh = static_cast<float*>(::operator new(
      new_capacity * sizeof(float), std::align_val_t(kAlignment)));
  if (preserve && data_ != nullptr) {
    std::memcpy(fresh, data_, capacity_ * sizeof(float));
  }
  Release();
  data_ = fresh;
  capacity_ = new_capacity;
}

void AlignedBuffer::Release() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t(kAlignment));
  }
  data_ = nullptr;
  capacity_ = 0;
}

MatView InferenceArena::Alloc(int64_t rows, int64_t cols) {
  AWMOE_CHECK(rows >= 0 && cols >= 0)
      << "InferenceArena::Alloc " << rows << "x" << cols;
  // Row stride padded to the slab alignment so every row — not just the
  // slab base — is 64-byte aligned. Padding lanes are never touched by
  // kernels (they iterate c < cols).
  const int64_t stride = (cols + kAlignFloats - 1) / kAlignFloats *
                         kAlignFloats;
  const size_t needed = static_cast<size_t>(rows * stride);
  if (next_ == slabs_.size()) slabs_.emplace_back();
  AlignedBuffer& slab = slabs_[next_++];
  // Reserve never shrinks capacity, so a warmed slab serves any batch
  // up to the largest it has seen without touching the heap.
  if (slab.capacity() < needed) slab.Reserve(needed);
  AWMOE_DCHECK(reinterpret_cast<uintptr_t>(slab.data()) %
                   AlignedBuffer::kAlignment ==
               0)
      << "arena slab base lost its alignment";
  return MatView{slab.data(), rows, cols, stride};
}

std::span<float> InferenceWorkspace::Staging(StagingSlot slot, int64_t n) {
  AWMOE_CHECK(n >= 0) << "Staging size " << n;
  AlignedBuffer& buffer = staging_[slot];
  if (buffer.capacity() < static_cast<size_t>(n)) {
    buffer.Reserve(static_cast<size_t>(n), /*preserve=*/true);
  }
  return std::span<float>(buffer.data(), static_cast<size_t>(n));
}

namespace {

/// Row-parallelism thread budget; -1 = not resolved from the
/// environment yet, 0/1 = off.
std::atomic<int> g_row_threads{-1};

constexpr int kMaxRowThreads = 64;
/// Minimum rows a parallel chunk must carry for the split to pay.
constexpr int64_t kMinRowsPerChunk = 16;

}  // namespace

// ---------------------------------------------------------------------
// Optional intra-batch row parallelism.
//
// A persistent worker pool (created on first enable, deliberately
// leaked so shutdown never races static destruction) splits a matmul's
// row range into contiguous chunks claimed off one atomic counter.
// Rows are arithmetic-independent and position-invariant in both
// tiers, so the parallel product is bitwise identical to the serial
// one at the same tier. One matmul runs at a time (run_mu_): this is
// an opt-in throughput lever for large batches, not a fleet-wide
// scheduler — serving lanes already parallelise across requests.
// ---------------------------------------------------------------------

namespace {

class RowParallelPool {
 public:
  static RowParallelPool& Instance() {
    static RowParallelPool* pool = new RowParallelPool();
    return *pool;
  }

  /// Grows the pool to `workers` threads (never shrinks; the caller
  /// thread works too, so `threads` parallelism needs threads-1
  /// workers).
  void EnsureWorkers(int workers) {
    std::lock_guard<std::mutex> run_lock(run_mu_);
    std::unique_lock<std::mutex> lock(mu_);
    while (static_cast<int>(threads_.size()) < workers) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Runs fn(ctx, chunk) for chunk in [0, chunks); blocks until all
  /// chunks finish. The calling thread participates.
  void Run(int chunks, void (*fn)(void*, int), void* ctx) {
    std::lock_guard<std::mutex> run_lock(run_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = fn;
      ctx_ = ctx;
      chunks_ = chunks;
      done_ = 0;
      next_chunk_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
    work_cv_.notify_all();
    for (;;) {
      const int chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) break;
      fn(ctx, chunk);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] {
      return done_ == static_cast<int>(threads_.size());
    });
  }

  int workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
  }

 private:
  RowParallelPool() = default;

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      void (*fn)(void*, int) = nullptr;
      void* ctx = nullptr;
      int chunks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        fn = fn_;
        ctx = ctx_;
        chunks = chunks_;
      }
      for (;;) {
        const int chunk =
            next_chunk_.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= chunks) break;
        fn(ctx, chunk);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      done_cv_.notify_all();
    }
  }

  /// Serialises Run() calls (and pool growth) against each other.
  std::mutex run_mu_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  uint64_t generation_ = 0;
  int chunks_ = 0;
  int done_ = 0;
  void (*fn_)(void*, int) = nullptr;
  void* ctx_ = nullptr;
  std::atomic<int> next_chunk_{0};
};

struct ParallelMatMulTask {
  const KernelDispatchTable* table;
  const ConstMatView* a;
  const Matrix* w;
  const MatView* out;
  int64_t chunk_rows;
};

void RunMatMulChunk(void* raw, int chunk) {
  const ParallelMatMulTask& task = *static_cast<ParallelMatMulTask*>(raw);
  const int64_t begin = static_cast<int64_t>(chunk) * task.chunk_rows;
  const int64_t end = std::min(task.out->rows, begin + task.chunk_rows);
  if (begin >= end) return;
  const ConstMatView a_slice(task.a->data + begin * task.a->stride,
                             end - begin, task.a->cols, task.a->stride);
  const MatView out_slice{task.out->data + begin * task.out->stride,
                          end - begin, task.out->cols, task.out->stride};
  task.table->matmul(a_slice, MatrixView(*task.w), out_slice);
}

}  // namespace

void SetKernelRowParallelism(int threads) {
  AWMOE_CHECK(threads >= 0 && threads <= kMaxRowThreads)
      << "kernel row parallelism " << threads;
  if (threads > 1) RowParallelPool::Instance().EnsureWorkers(threads - 1);
  g_row_threads.store(threads, std::memory_order_release);
}

int KernelRowParallelism() {
  int threads = g_row_threads.load(std::memory_order_acquire);
  if (threads < 0) {
    threads = 0;
    if (const char* env = std::getenv("AWMOE_KERNEL_THREADS")) {
      threads = std::atoi(env);
      threads = std::clamp(threads, 0, kMaxRowThreads);
    }
    if (threads > 1) RowParallelPool::Instance().EnsureWorkers(threads - 1);
    g_row_threads.store(threads, std::memory_order_release);
  }
  return threads;
}

// ---------------------------------------------------------------------
// Public kernels: validate shapes here, then jump through the active
// tier table.
// ---------------------------------------------------------------------

void MatMulInto(const ConstMatView& a, const Matrix& w, MatView out) {
  AWMOE_CHECK(a.cols == w.rows())
      << "MatMulInto: " << a.rows << "x" << a.cols << " * "
      << w.ShapeString();
  AWMOE_CHECK(out.rows == a.rows && out.cols == w.cols())
      << "MatMulInto: out " << out.rows << "x" << out.cols;
  const KernelDispatchTable& table = ActiveKernels();
  const int threads = KernelRowParallelism();
  if (threads > 1 && out.rows >= 2 * kMinRowsPerChunk &&
      a.stride != 0) {
    const int chunks = static_cast<int>(std::min<int64_t>(
        threads, out.rows / kMinRowsPerChunk));
    if (chunks > 1) {
      const int64_t chunk_rows = (out.rows + chunks - 1) / chunks;
      ParallelMatMulTask task{&table, &a, &w, &out, chunk_rows};
      RowParallelPool::Instance().Run(chunks, RunMatMulChunk, &task);
      return;
    }
  }
  table.matmul(a, MatrixView(w), out);
}

void AddBiasInPlace(MatView a, const Matrix& bias) {
  AWMOE_CHECK(bias.rows() == 1 && bias.cols() == a.cols)
      << "AddBiasInPlace: " << a.rows << "x" << a.cols << " + "
      << bias.ShapeString();
  ActiveKernels().add_bias(a, bias);
}

void ReluInPlace(MatView a) { ActiveKernels().relu(a); }

void SigmoidSpanInto(std::span<const float> x, std::span<float> out) {
  AWMOE_CHECK(x.size() == out.size())
      << "SigmoidSpanInto: " << x.size() << " vs " << out.size();
  ActiveKernels().sigmoid_span(x.data(), out.data(),
                               static_cast<int64_t>(x.size()));
}

void TopKMulInPlace(MatView a, int64_t k, InferenceArena* arena) {
  const size_t mark = arena->Mark();
  const MatView mask = arena->Alloc(a.rows, a.cols);
  TopKMaskRowsInto(a, k, mask);
  MulInto(a, mask, a);
  arena->Rewind(mark);
}

}  // namespace awmoe
