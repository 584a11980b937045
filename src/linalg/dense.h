// Dense linear algebra — the framework's stand-in for a numeric package
// (the paper's ScaLAPACK-class provider).
//
// Row-major double matrices with naive and cache-blocked kernels. The
// blocked/naive pair exists on purpose: E8 ablates the blocking, and E3
// contrasts a native GEMM against the relational expansion of matmul.
#ifndef NEXUS_LINALG_DENSE_H_
#define NEXUS_LINALG_DENSE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "types/ndarray.h"

namespace nexus {
namespace linalg {

/// Row-major dense matrix of float64.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {}

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  double At(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  void Set(int64_t r, int64_t c, double v) {
    data_[static_cast<size_t>(r * cols_ + c)] = v;
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  bool SameShape(const DenseMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  /// Max absolute elementwise difference (for test tolerances).
  double MaxAbsDiff(const DenseMatrix& o) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B, triple loop in ikj order (no blocking). Baseline for E8.
Result<DenseMatrix> MatMulNaive(const DenseMatrix& a, const DenseMatrix& b);

/// C = A * B with cache blocking; `block` is the tile edge (0 = default 64).
Result<DenseMatrix> MatMulBlocked(const DenseMatrix& a, const DenseMatrix& b,
                                  int64_t block = 0);

/// B = Aᵀ.
DenseMatrix Transpose(const DenseMatrix& a);

/// C = alpha*A + beta*B (shapes must match).
Result<DenseMatrix> Add(const DenseMatrix& a, const DenseMatrix& b,
                        double alpha = 1.0, double beta = 1.0);

/// Hadamard (elementwise) product.
Result<DenseMatrix> ElemMul(const DenseMatrix& a, const DenseMatrix& b);

/// y = A * x.
Result<std::vector<double>> MatVec(const DenseMatrix& a,
                                   const std::vector<double>& x);

/// Converts a 2-d NDArray with one numeric attribute into a dense matrix,
/// mapping coordinates relative to each dimension's start; absent cells
/// become 0. Returns the dimension starts so the inverse keeps coordinates.
Result<DenseMatrix> FromNDArray(const NDArray& in, int64_t* row_start,
                                int64_t* col_start);

/// Writes every occupied, non-null cell of a 2-d array with one numeric
/// attribute into `m` at (row - row_off, col - col_off), leaving the other
/// entries as they are. Every such cell must land inside `m`.
Status ScatterToDense(const NDArray& in, int64_t row_off, int64_t col_off,
                      DenseMatrix* m);

/// Inverse of FromNDArray: emits every entry (including zeros) as cells of
/// a fresh array with dims named `row_name`/`col_name` and one float64
/// attribute `attr`. `drop_zeros` emits only nonzero entries (sparse use).
Result<NDArrayPtr> ToNDArray(const DenseMatrix& m, const std::string& row_name,
                             const std::string& col_name, const std::string& attr,
                             int64_t row_start, int64_t col_start,
                             int64_t chunk_size, bool drop_zeros);

}  // namespace linalg
}  // namespace nexus

#endif  // NEXUS_LINALG_DENSE_H_
