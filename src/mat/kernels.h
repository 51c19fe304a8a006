#ifndef AWMOE_MAT_KERNELS_H_
#define AWMOE_MAT_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "mat/matrix.h"
#include "mat/view.h"

namespace awmoe {

// Dense kernels over Matrix. All functions shape-check their inputs with
// AWMOE_CHECK (shape bugs are programmer errors, not recoverable states).
// Kernels return results by value; gradient-accumulation variants mutate in
// place and end in `InPlace`.
//
// ONE LOOP PER OP: an op that both the autograd graph and the graph-free
// inference path run has exactly one loop, written over views (the last
// section of this file). Its Matrix form allocates the result and calls
// that view kernel, so training and inference share each loop.
//
// The GEMM family is the exception: a product has one loop PER KERNEL
// TIER, and every product (Matrix or view form) dispatches through the
// active tier's table (mat/kernel_tier.h). The autograd graph, the
// inference path and the listwise slate core all multiply through it, so
// they agree bitwise at each tier; the reference tier's loops are the
// library's historical scalar arithmetic.

// ---------------------------------------------------------------------------
// GEMM family (tier-dispatched).
// ---------------------------------------------------------------------------

/// C = A[m,k] * B[k,n].
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B where A is [k,m], B is [k,n]; result [m,n]. Avoids forming
/// the transpose (used for weight gradients dW = X^T dY).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T where A is [m,k], B is [n,k]; result [m,n]. Avoids forming
/// the transpose (used for input gradients dX = dY W^T).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// out = a[m,k] * b[k,n] (MatMul) at the active tier.
void MatMulViewInto(const ConstMatView& a, const ConstMatView& b,
                    MatView out);

/// out = a[m,k] * b[n,k]^T (MatMulTransB) at the active tier.
void MatMulNTViewInto(const ConstMatView& a, const ConstMatView& b,
                      MatView out);

/// A^T.
Matrix Transpose(const Matrix& a);

// ---------------------------------------------------------------------------
// Elementwise.
// ---------------------------------------------------------------------------

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Mul(const Matrix& a, const Matrix& b);
Matrix Div(const Matrix& a, const Matrix& b);

/// a += b.
void AddInPlace(Matrix* a, const Matrix& b);
/// a += alpha * b.
void AxpyInPlace(Matrix* a, float alpha, const Matrix& b);
/// a *= s.
void ScaleInPlace(Matrix* a, float s);

Matrix AddScalar(const Matrix& a, float s);
Matrix MulScalar(const Matrix& a, float s);

Matrix Relu(const Matrix& a);
/// Gradient of ReLU: grad where input > 0, else 0.
Matrix ReluBackward(const Matrix& grad, const Matrix& input);

/// Numerically stable logistic sigmoid.
Matrix Sigmoid(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Exp(const Matrix& a);
/// Natural log with inputs clamped to >= `floor` for stability.
Matrix Log(const Matrix& a, float floor = 1e-12f);
Matrix Square(const Matrix& a);
Matrix Sqrt(const Matrix& a);
Matrix Neg(const Matrix& a);
/// Elementwise clamp to [lo, hi].
Matrix Clip(const Matrix& a, float lo, float hi);

// ---------------------------------------------------------------------------
// Broadcasting.
// ---------------------------------------------------------------------------

/// A[m,n] + b[1,n] broadcast over rows (bias add).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& b);

/// A[m,n] * w[m,1]: scales row i of A by w(i,0).
Matrix MulColBroadcast(const Matrix& a, const Matrix& w);

/// A[m,n] * r[1,n]: scales column j of A by r(0,j).
Matrix MulRowBroadcast(const Matrix& a, const Matrix& r);

/// Tiles column vector col[m,1] across `cols` columns: result [m, cols].
Matrix BroadcastCol(const Matrix& col, int64_t cols);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Column sums: [1,n].
Matrix ColSum(const Matrix& a);
/// Row sums: [m,1].
Matrix RowSum(const Matrix& a);
/// Row means: [m,1].
Matrix RowMean(const Matrix& a);
double SumAll(const Matrix& a);
double MeanAll(const Matrix& a);
float MaxAll(const Matrix& a);
float MinAll(const Matrix& a);
/// Frobenius norm.
double Norm(const Matrix& a);

/// Rowwise dot product of equally shaped A, B: [m,1].
Matrix DotRows(const Matrix& a, const Matrix& b);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// Row-wise softmax restricted to the columns where mask(r,c) != 0; masked
/// columns get exact 0.0f. The arithmetic over the included columns (in
/// ascending column order) is identical to SoftmaxRows, so a row whose
/// included columns form a contiguous block is bitwise-equal to running
/// SoftmaxRows on that block alone. Every row must include >= 1 column.
Matrix MaskedSoftmaxRows(const Matrix& a, const Matrix& mask);

/// Row-wise log-sum-exp: [m,1], numerically stable.
Matrix LogSumExpRows(const Matrix& a);

// ---------------------------------------------------------------------------
// Indexing / layout.
// ---------------------------------------------------------------------------

/// Stacks rows `a.row(idx[i])` into a new [idx.size, n] matrix. Indices may
/// repeat; each must be in [0, a.rows()).
Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& indices);

/// target->row(indices[i]) += rows.row(i) for all i (duplicate indices
/// accumulate). Used for embedding gradients.
void ScatterAddRows(Matrix* target, const std::vector<int64_t>& indices,
                    const Matrix& rows);

/// Horizontal concatenation; all parts must have equal row counts.
Matrix ConcatCols(const std::vector<const Matrix*>& parts);

/// Columns [begin, end) of A.
Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end);

/// Rows [begin, end) of A.
Matrix SliceRows(const Matrix& a, int64_t begin, int64_t end);

/// Per row, 1.0 at the k largest entries and 0.0 elsewhere (ties broken by
/// lower column index; TopKMaskRowsInto is the rule). k must be in
/// [1, cols].
Matrix TopKMaskRows(const Matrix& a, int64_t k);

/// True if all elements of a and b are within `tol` of each other
/// (and shapes match).
bool AllClose(const Matrix& a, const Matrix& b, float tol);

// ---------------------------------------------------------------------------
// View kernels: the one scalar loop of each op shared by a Matrix op above,
// the reference kernel tier and the inference modules. Each writes into a
// caller-provided view and iterates c < cols only, so padded row strides are
// never touched. "Aliasing allowed" means out may be exactly the input view
// (same data, same stride), which gives the same bits as out of place.
// ---------------------------------------------------------------------------

/// out = src (element copy).
void CopyInto(const ConstMatView& src, MatView out);

/// out = a[m,n] + bias[1,n] broadcast over rows (AddRowBroadcast).
/// Aliasing allowed.
void AddRowBroadcastInto(const ConstMatView& a, const ConstMatView& bias,
                         MatView out);

/// out = max(a, 0) elementwise (Relu). Aliasing allowed.
void ReluInto(const ConstMatView& a, MatView out);

/// The sigmoid's per-element form, split by sign for stability.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  float z = std::exp(x);
  return z / (1.0f + z);
}

/// out[i] = StableSigmoid(x[i]) over n contiguous floats (Sigmoid).
/// Aliasing allowed.
void SigmoidInto(const float* x, float* out, int64_t n);

/// out = a * b elementwise (Mul). Aliasing allowed.
void MulInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// out = a + b elementwise (Add, AddInPlace). Aliasing allowed.
void AddInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// out = a * s elementwise (MulScalar, ScaleInPlace). Aliasing allowed.
void MulScalarInto(const ConstMatView& a, float s, MatView out);

/// out[r][c] = a[r][c] * w[r][0] (MulColBroadcast). Aliasing of a allowed.
void MulColBroadcastInto(const ConstMatView& a, const ConstMatView& w,
                         MatView out);

/// out[r][0] = dot(a.row(r), b.row(r)) (DotRows).
void DotRowsInto(const ConstMatView& a, const ConstMatView& b, MatView out);

/// Row-wise softmax, max-subtracted (SoftmaxRows). Aliasing allowed.
void SoftmaxRowsInto(const ConstMatView& a, MatView out);

/// out.row(i) = table.row(ids[i * id_stride]) (GatherRows); the stride lets
/// callers gather one sequence position directly from a Batch's row-major
/// [size * seq_len] id layout without building an index vector.
void GatherRowsInto(const Matrix& table, const int64_t* ids, int64_t count,
                    int64_t id_stride, MatView out);

/// The one top-k selection rule: mask(r,c) = 1.0 when fewer than k
/// entries of row r rank strictly ahead of a(r,c) under (value desc,
/// column asc), else 0.0. No aliasing: every rank reads unmodified values.
void TopKMaskRowsInto(const ConstMatView& a, int64_t k, MatView mask);

/// out[B, 3d] = [a | b | a*b] — the "product path" input layout shared by
/// the activation unit (Fig. 4a) and the gate unit (Fig. 4c). One
/// definition so the layout cannot drift between the two.
void ConcatInteractionInto(const ConstMatView& a, const ConstMatView& b,
                           MatView out);

}  // namespace awmoe

#endif  // AWMOE_MAT_KERNELS_H_
