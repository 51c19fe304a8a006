#include "mat/kernels.h"

#include <algorithm>
#include <cmath>

#include "mat/kernel_tier.h"

namespace awmoe {

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  AWMOE_CHECK(a.SameShape(b)) << op << ": shape mismatch " << a.ShapeString()
                              << " vs " << b.ShapeString();
}

void CheckSameShapeView(const ConstMatView& a, const ConstMatView& b,
                        const char* op) {
  AWMOE_CHECK(a.rows == b.rows && a.cols == b.cols)
      << op << ": shape mismatch " << a.rows << "x" << a.cols << " vs "
      << b.rows << "x" << b.cols;
}

template <typename Fn>
Matrix ElementwiseUnary(const Matrix& a, Fn fn) {
  Matrix out(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) dst[i] = fn(src[i]);
  return out;
}

}  // namespace

void MatMulViewInto(const ConstMatView& a, const ConstMatView& b,
                    MatView out) {
  AWMOE_CHECK(a.cols == b.rows)
      << "MatMul: " << a.rows << "x" << a.cols << " * " << b.rows << "x"
      << b.cols;
  AWMOE_CHECK(out.rows == a.rows && out.cols == b.cols)
      << "MatMul: out " << out.rows << "x" << out.cols;
  ActiveKernels().matmul(a, b, out);
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  MatMulViewInto(MatrixView(a), MatrixView(b), MutableView(&c));
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  AWMOE_CHECK(a.rows() == b.rows())
      << "MatMulTransA: " << a.ShapeString() << "^T * " << b.ShapeString();
  Matrix c(a.cols(), b.cols());
  ActiveKernels().matmul_tn(MatrixView(a), MatrixView(b), MutableView(&c));
  return c;
}

void MatMulNTViewInto(const ConstMatView& a, const ConstMatView& b,
                      MatView out) {
  AWMOE_CHECK(a.cols == b.cols)
      << "MatMulTransB: " << a.rows << "x" << a.cols << " * " << b.rows
      << "x" << b.cols << "^T";
  AWMOE_CHECK(out.rows == a.rows && out.cols == b.rows)
      << "MatMulTransB: out " << out.rows << "x" << out.cols;
  ActiveKernels().matmul_nt(a, b, out);
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  MatMulNTViewInto(MatrixView(a), MatrixView(b), MutableView(&c));
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) out(c, r) = arow[c];
  }
  return out;
}

void AddInto(const ConstMatView& a, const ConstMatView& b, MatView out) {
  CheckSameShapeView(a, b, "Add");
  CheckSameShapeView(a, out, "Add(out)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* pa = a.row(r);
    const float* pb = b.row(r);
    float* po = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) po[c] = pa[c] + pb[c];
  }
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols());
  AddInto(MatrixView(a), MatrixView(b), MutableView(&out));
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Sub");
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = pa[i] - pb[i];
  return out;
}

void MulInto(const ConstMatView& a, const ConstMatView& b, MatView out) {
  CheckSameShapeView(a, b, "Mul");
  CheckSameShapeView(a, out, "Mul(out)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* pa = a.row(r);
    const float* pb = b.row(r);
    float* po = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) po[c] = pa[c] * pb[c];
  }
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols());
  MulInto(MatrixView(a), MatrixView(b), MutableView(&out));
  return out;
}

Matrix Div(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Div");
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = pa[i] / pb[i];
  return out;
}

void AddInPlace(Matrix* a, const Matrix& b) {
  AddInto(MatrixView(*a), MatrixView(b), MutableView(a));
}

void AxpyInPlace(Matrix* a, float alpha, const Matrix& b) {
  CheckSameShape(*a, b, "AxpyInPlace");
  float* pa = a->data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a->size(); ++i) pa[i] += alpha * pb[i];
}

void MulScalarInto(const ConstMatView& a, float s, MatView out) {
  CheckSameShapeView(a, out, "MulScalar");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* pa = a.row(r);
    float* po = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) po[c] = pa[c] * s;
  }
}

void ScaleInPlace(Matrix* a, float s) {
  MulScalarInto(MatrixView(*a), s, MutableView(a));
}

Matrix AddScalar(const Matrix& a, float s) {
  return ElementwiseUnary(a, [s](float x) { return x + s; });
}

Matrix MulScalar(const Matrix& a, float s) {
  Matrix out(a.rows(), a.cols());
  MulScalarInto(MatrixView(a), s, MutableView(&out));
  return out;
}

void ReluInto(const ConstMatView& a, MatView out) {
  CheckSameShapeView(a, out, "Relu");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) {
      orow[c] = arow[c] > 0.0f ? arow[c] : 0.0f;
    }
  }
}

Matrix Relu(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  ReluInto(MatrixView(a), MutableView(&out));
  return out;
}

Matrix ReluBackward(const Matrix& grad, const Matrix& input) {
  CheckSameShape(grad, input, "ReluBackward");
  Matrix out(grad.rows(), grad.cols());
  const float* pg = grad.data();
  const float* pi = input.data();
  float* po = out.data();
  for (int64_t i = 0; i < grad.size(); ++i) {
    po[i] = pi[i] > 0.0f ? pg[i] : 0.0f;
  }
  return out;
}

void SigmoidInto(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = StableSigmoid(x[i]);
}

Matrix Sigmoid(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  SigmoidInto(a.data(), out.data(), a.size());
  return out;
}

Matrix Tanh(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); });
}

Matrix Exp(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return std::exp(x); });
}

Matrix Log(const Matrix& a, float floor) {
  return ElementwiseUnary(
      a, [floor](float x) { return std::log(std::max(x, floor)); });
}

Matrix Square(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return x * x; });
}

Matrix Sqrt(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return std::sqrt(x); });
}

Matrix Neg(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return -x; });
}

Matrix Clip(const Matrix& a, float lo, float hi) {
  AWMOE_CHECK(lo <= hi) << "Clip: lo=" << lo << " hi=" << hi;
  return ElementwiseUnary(
      a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}

void AddRowBroadcastInto(const ConstMatView& a, const ConstMatView& bias,
                         MatView out) {
  AWMOE_CHECK(bias.rows == 1 && bias.cols == a.cols)
      << "AddRowBroadcast: " << a.rows << "x" << a.cols << " + "
      << bias.rows << "x" << bias.cols;
  CheckSameShapeView(a, out, "AddRowBroadcast(out)");
  const float* pb = bias.row(0);
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) orow[c] = arow[c] + pb[c];
  }
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols());
  AddRowBroadcastInto(MatrixView(a), MatrixView(b), MutableView(&out));
  return out;
}

void MulColBroadcastInto(const ConstMatView& a, const ConstMatView& w,
                         MatView out) {
  AWMOE_CHECK(w.cols == 1 && w.rows == a.rows)
      << "MulColBroadcast: " << a.rows << "x" << a.cols << " * " << w.rows
      << "x" << w.cols;
  CheckSameShapeView(a, out, "MulColBroadcast(out)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float wr = *w.row(r);
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) orow[c] = arow[c] * wr;
  }
}

Matrix MulColBroadcast(const Matrix& a, const Matrix& w) {
  Matrix out(a.rows(), a.cols());
  MulColBroadcastInto(MatrixView(a), MatrixView(w), MutableView(&out));
  return out;
}

Matrix MulRowBroadcast(const Matrix& a, const Matrix& r) {
  AWMOE_CHECK(r.rows() == 1 && r.cols() == a.cols())
      << "MulRowBroadcast: " << a.ShapeString() << " * " << r.ShapeString();
  Matrix out(a.rows(), a.cols());
  const float* pr = r.data();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (int64_t c = 0; c < a.cols(); ++c) orow[c] = arow[c] * pr[c];
  }
  return out;
}

Matrix BroadcastCol(const Matrix& col, int64_t cols) {
  AWMOE_CHECK(col.cols() == 1)
      << "BroadcastCol: expected column vector, got " << col.ShapeString();
  Matrix out(col.rows(), cols);
  for (int64_t r = 0; r < col.rows(); ++r) {
    float v = col(r, 0);
    float* orow = out.row(r);
    for (int64_t c = 0; c < cols; ++c) orow[c] = v;
  }
  return out;
}

Matrix ColSum(const Matrix& a) {
  Matrix out(1, a.cols());
  float* po = out.data();
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) po[c] += arow[c];
  }
  return out;
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) acc += arow[c];
    out(r, 0) = acc;
  }
  return out;
}

Matrix RowMean(const Matrix& a) {
  AWMOE_CHECK(a.cols() > 0);
  Matrix out = RowSum(a);
  ScaleInPlace(&out, 1.0f / static_cast<float>(a.cols()));
  return out;
}

double SumAll(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += p[i];
  return acc;
}

double MeanAll(const Matrix& a) {
  AWMOE_CHECK(a.size() > 0);
  return SumAll(a) / static_cast<double>(a.size());
}

float MaxAll(const Matrix& a) {
  AWMOE_CHECK(a.size() > 0);
  const float* p = a.data();
  float best = p[0];
  for (int64_t i = 1; i < a.size(); ++i) best = std::max(best, p[i]);
  return best;
}

float MinAll(const Matrix& a) {
  AWMOE_CHECK(a.size() > 0);
  const float* p = a.data();
  float best = p[0];
  for (int64_t i = 1; i < a.size(); ++i) best = std::min(best, p[i]);
  return best;
}

double Norm(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  }
  return std::sqrt(acc);
}

void DotRowsInto(const ConstMatView& a, const ConstMatView& b, MatView out) {
  CheckSameShapeView(a, b, "DotRows");
  AWMOE_CHECK(out.rows == a.rows && out.cols == 1)
      << "DotRows: out " << out.rows << "x" << out.cols;
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols; ++c) acc += arow[c] * brow[c];
    *out.row(r) = acc;
  }
}

Matrix DotRows(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), 1);
  DotRowsInto(MatrixView(a), MatrixView(b), MutableView(&out));
  return out;
}

void SoftmaxRowsInto(const ConstMatView& a, MatView out) {
  AWMOE_CHECK(a.cols > 0) << "SoftmaxRows on empty rows";
  CheckSameShapeView(a, out, "SoftmaxRows(out)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    float* orow = out.row(r);
    float max_val = arow[0];
    for (int64_t c = 1; c < a.cols; ++c) max_val = std::max(max_val, arow[c]);
    float denom = 0.0f;
    for (int64_t c = 0; c < a.cols; ++c) {
      orow[c] = std::exp(arow[c] - max_val);
      denom += orow[c];
    }
    for (int64_t c = 0; c < a.cols; ++c) orow[c] /= denom;
  }
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  SoftmaxRowsInto(MatrixView(a), MutableView(&out));
  return out;
}

Matrix MaskedSoftmaxRows(const Matrix& a, const Matrix& mask) {
  AWMOE_CHECK(a.cols() > 0);
  CheckSameShape(a, mask, "MaskedSoftmaxRows");
  Matrix out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* mrow = mask.row(r);
    float* orow = out.row(r);
    // Max over included columns; mirrors SoftmaxRows' first-then-max order.
    bool seen = false;
    float max_val = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (mrow[c] == 0.0f) continue;
      max_val = seen ? std::max(max_val, arow[c]) : arow[c];
      seen = true;
    }
    AWMOE_CHECK(seen) << "MaskedSoftmaxRows: row " << r << " masks out every "
                      << "column";
    float denom = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (mrow[c] == 0.0f) {
        orow[c] = 0.0f;
        continue;
      }
      orow[c] = std::exp(arow[c] - max_val);
      denom += orow[c];
    }
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (mrow[c] != 0.0f) orow[c] /= denom;
    }
  }
  return out;
}

Matrix LogSumExpRows(const Matrix& a) {
  AWMOE_CHECK(a.cols() > 0);
  Matrix out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float max_val = arow[0];
    for (int64_t c = 1; c < a.cols(); ++c) max_val = std::max(max_val, arow[c]);
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) acc += std::exp(arow[c] - max_val);
    out(r, 0) = max_val + std::log(acc);
  }
  return out;
}

void GatherRowsInto(const Matrix& table, const int64_t* ids, int64_t count,
                    int64_t id_stride, MatView out) {
  AWMOE_CHECK(out.rows == count && out.cols == table.cols())
      << "GatherRows: out " << out.rows << "x" << out.cols << " for "
      << count << " rows of " << table.ShapeString();
  for (int64_t i = 0; i < count; ++i) {
    const int64_t idx = ids[i * id_stride];
    AWMOE_CHECK(idx >= 0 && idx < table.rows())
        << "GatherRows: index " << idx << " out of " << table.rows();
    const float* src = table.row(idx);
    std::copy(src, src + table.cols(), out.row(i));
  }
}

Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& indices) {
  const int64_t count = static_cast<int64_t>(indices.size());
  Matrix out(count, a.cols());
  GatherRowsInto(a, indices.data(), count, /*id_stride=*/1, MutableView(&out));
  return out;
}

void ScatterAddRows(Matrix* target, const std::vector<int64_t>& indices,
                    const Matrix& rows) {
  AWMOE_CHECK(static_cast<int64_t>(indices.size()) == rows.rows())
      << "ScatterAddRows: " << indices.size() << " indices vs "
      << rows.rows() << " rows";
  AWMOE_CHECK(target->cols() == rows.cols())
      << "ScatterAddRows: col mismatch " << target->ShapeString() << " vs "
      << rows.ShapeString();
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t idx = indices[i];
    AWMOE_CHECK(idx >= 0 && idx < target->rows())
        << "ScatterAddRows: index " << idx << " out of " << target->rows();
    float* dst = target->row(idx);
    const float* src = rows.row(static_cast<int64_t>(i));
    for (int64_t c = 0; c < rows.cols(); ++c) dst[c] += src[c];
  }
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  AWMOE_CHECK(!parts.empty()) << "ConcatCols: no parts";
  int64_t rows = parts[0]->rows();
  int64_t total_cols = 0;
  for (const Matrix* part : parts) {
    AWMOE_CHECK(part->rows() == rows)
        << "ConcatCols: row mismatch " << part->rows() << " vs " << rows;
    total_cols += part->cols();
  }
  Matrix out(rows, total_cols);
  int64_t offset = 0;
  for (const Matrix* part : parts) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = part->row(r);
      float* dst = out.row(r) + offset;
      std::copy(src, src + part->cols(), dst);
    }
    offset += part->cols();
  }
  return out;
}

Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end) {
  AWMOE_CHECK(0 <= begin && begin <= end && end <= a.cols())
      << "SliceCols: [" << begin << "," << end << ") of " << a.cols();
  Matrix out(a.rows(), end - begin);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.row(r) + begin;
    std::copy(src, src + (end - begin), out.row(r));
  }
  return out;
}

Matrix SliceRows(const Matrix& a, int64_t begin, int64_t end) {
  AWMOE_CHECK(0 <= begin && begin <= end && end <= a.rows())
      << "SliceRows: [" << begin << "," << end << ") of " << a.rows();
  Matrix out(end - begin, a.cols());
  for (int64_t r = begin; r < end; ++r) {
    const float* src = a.row(r);
    std::copy(src, src + a.cols(), out.row(r - begin));
  }
  return out;
}

void TopKMaskRowsInto(const ConstMatView& a, int64_t k, MatView mask) {
  AWMOE_CHECK(k >= 1 && k <= a.cols)
      << "TopKMaskRows: k=" << k << " cols=" << a.cols;
  CheckSameShapeView(a, mask, "TopKMaskRows(mask)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    float* mrow = mask.row(r);
    for (int64_t c = 0; c < a.cols; ++c) {
      int64_t ahead = 0;
      for (int64_t o = 0; o < a.cols; ++o) {
        if (arow[o] > arow[c] || (arow[o] == arow[c] && o < c)) ++ahead;
      }
      mrow[c] = ahead < k ? 1.0f : 0.0f;
    }
  }
}

Matrix TopKMaskRows(const Matrix& a, int64_t k) {
  Matrix out(a.rows(), a.cols());
  TopKMaskRowsInto(MatrixView(a), k, MutableView(&out));
  return out;
}

void CopyInto(const ConstMatView& src, MatView out) {
  CheckSameShapeView(src, out, "CopyInto");
  for (int64_t r = 0; r < src.rows; ++r) {
    const float* s = src.row(r);
    std::copy(s, s + src.cols, out.row(r));
  }
}

void ConcatInteractionInto(const ConstMatView& a, const ConstMatView& b,
                           MatView out) {
  CheckSameShapeView(a, b, "ConcatInteractionInto");
  AWMOE_CHECK(out.rows == a.rows && out.cols == 3 * a.cols)
      << "ConcatInteractionInto: out " << out.rows << "x" << out.cols;
  const int64_t d = a.cols;
  CopyInto(a, out.ColBlock(0, d));
  CopyInto(b, out.ColBlock(d, d));
  MulInto(a, b, out.ColBlock(2 * d, d));
}

bool AllClose(const Matrix& a, const Matrix& b, float tol) {
  if (!a.SameShape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace awmoe
