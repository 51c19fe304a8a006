#ifndef AWMOE_MAT_VIEW_H_
#define AWMOE_MAT_VIEW_H_

#include <cstdint>

#include "mat/matrix.h"

namespace awmoe {

/// Non-owning, mutable view of a row-major [rows, cols] block whose rows
/// are `stride` floats apart (stride >= cols; a column block of a wider
/// buffer keeps the parent's stride).
struct MatView {
  float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t stride = 0;

  float* row(int64_t r) const { return data + r * stride; }

  /// Columns [begin, begin + width) as a sub-view (same rows).
  MatView ColBlock(int64_t begin, int64_t width) const {
    AWMOE_DCHECK(begin >= 0 && width >= 0 && begin + width <= cols)
        << "ColBlock [" << begin << "," << begin + width << ") of " << cols;
    return MatView{data + begin, rows, width, stride};
  }
};

/// Read-only view; converts implicitly from MatView and wraps const
/// Matrix storage (batch features, cached gate rows) without copying.
/// A broadcast row is expressed as stride == 0.
struct ConstMatView {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t stride = 0;

  ConstMatView() = default;
  ConstMatView(const float* data, int64_t rows, int64_t cols, int64_t stride)
      : data(data), rows(rows), cols(cols), stride(stride) {}
  ConstMatView(const MatView& v)  // NOLINT(google-explicit-constructor)
      : data(v.data), rows(v.rows), cols(v.cols), stride(v.stride) {}

  const float* row(int64_t r) const { return data + r * stride; }
};

/// Whole-matrix read view.
inline ConstMatView MatrixView(const Matrix& m) {
  return ConstMatView(m.data(), m.rows(), m.cols(), m.cols());
}

/// Whole-matrix write view.
inline MatView MutableView(Matrix* m) {
  return MatView{m->data(), m->rows(), m->cols(), m->cols()};
}

/// Columns [begin, begin + width) of a matrix as a read view.
inline ConstMatView MatrixColsView(const Matrix& m, int64_t begin,
                                   int64_t width) {
  AWMOE_DCHECK(begin >= 0 && width >= 0 && begin + width <= m.cols())
      << "MatrixColsView [" << begin << "," << begin + width << ") of "
      << m.cols();
  return ConstMatView(m.data() + begin, m.rows(), width, m.cols());
}

}  // namespace awmoe

#endif  // AWMOE_MAT_VIEW_H_
