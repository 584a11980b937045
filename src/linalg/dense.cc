#include "linalg/dense.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/str_util.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace linalg {

double DenseMatrix::MaxAbsDiff(const DenseMatrix& o) const {
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - o.data_[i]));
  }
  return m;
}

double DenseMatrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

namespace {
Status CheckMulShapes(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        StrCat("matmul shape mismatch: ", a.rows(), "x", a.cols(), " * ",
               b.rows(), "x", b.cols()));
  }
  return Status::OK();
}
}  // namespace

Result<DenseMatrix> MatMulNaive(const DenseMatrix& a, const DenseMatrix& b) {
  NEXUS_RETURN_NOT_OK(CheckMulShapes(a, b));
  DenseMatrix c(a.rows(), b.cols());
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* cd = c.data().data();
  int64_t n = a.rows(), k = a.cols(), m = b.cols();
  // Each output row is owned by exactly one morsel and accumulated in the
  // same kk order as the sequential loop, so the result is bit-identical.
  ParallelFor(n, 16, [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      for (int64_t kk = 0; kk < k; ++kk) {
        double av = ad[i * k + kk];
        if (av == 0.0) continue;
        const double* brow = bd + kk * m;
        double* crow = cd + i * m;
        for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Result<DenseMatrix> MatMulBlocked(const DenseMatrix& a, const DenseMatrix& b,
                                  int64_t block) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "la.MatMulBlk");
  span.AddCounter("rows", a.rows());
  span.AddCounter("cols", b.cols());
  NEXUS_RETURN_NOT_OK(CheckMulShapes(a, b));
  if (block <= 0) block = 64;
  DenseMatrix c(a.rows(), b.cols());
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* cd = c.data().data();
  int64_t n = a.rows(), k = a.cols(), m = b.cols();
  // Morsel = one i0 row-block. Row blocks partition the output rows, and
  // within a block every row keeps the sequential k0/j0 tile order, so the
  // floating-point accumulation order per output element is unchanged.
  ParallelFor(n, block, [&](int64_t i0, int64_t i1) {
    for (int64_t k0 = 0; k0 < k; k0 += block) {
      int64_t k1 = std::min(k, k0 + block);
      for (int64_t j0 = 0; j0 < m; j0 += block) {
        int64_t j1 = std::min(m, j0 + block);
        for (int64_t i = i0; i < i1; ++i) {
          for (int64_t kk = k0; kk < k1; ++kk) {
            double av = ad[i * k + kk];
            const double* brow = bd + kk * m;
            double* crow = cd + i * m;
            for (int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  });
  return c;
}

DenseMatrix Transpose(const DenseMatrix& a) {
  DenseMatrix t(a.cols(), a.rows());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) t.Set(c, r, a.At(r, c));
  }
  return t;
}

Result<DenseMatrix> Add(const DenseMatrix& a, const DenseMatrix& b,
                        double alpha, double beta) {
  if (!a.SameShape(b)) {
    return Status::InvalidArgument("matrix add shape mismatch");
  }
  DenseMatrix c(a.rows(), a.cols());
  ParallelFor(static_cast<int64_t>(a.data().size()), kMorselRows,
              [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      c.data()[static_cast<size_t>(i)] = alpha * a.data()[static_cast<size_t>(i)] +
                                         beta * b.data()[static_cast<size_t>(i)];
    }
  });
  return c;
}

Result<DenseMatrix> ElemMul(const DenseMatrix& a, const DenseMatrix& b) {
  if (!a.SameShape(b)) {
    return Status::InvalidArgument("elementwise mul shape mismatch");
  }
  DenseMatrix c(a.rows(), a.cols());
  ParallelFor(static_cast<int64_t>(a.data().size()), kMorselRows,
              [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      c.data()[static_cast<size_t>(i)] =
          a.data()[static_cast<size_t>(i)] * b.data()[static_cast<size_t>(i)];
    }
  });
  return c;
}

Result<std::vector<double>> MatVec(const DenseMatrix& a,
                                   const std::vector<double>& x) {
  if (a.cols() != static_cast<int64_t>(x.size())) {
    return Status::InvalidArgument("matvec shape mismatch");
  }
  std::vector<double> y(static_cast<size_t>(a.rows()), 0.0);
  ParallelFor(a.rows(), 1024, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      double s = 0.0;
      for (int64_t c = 0; c < a.cols(); ++c) s += a.At(r, c) * x[static_cast<size_t>(c)];
      y[static_cast<size_t>(r)] = s;
    }
  });
  return y;
}

Result<DenseMatrix> FromNDArray(const NDArray& in, int64_t* row_start,
                                int64_t* col_start) {
  if (in.num_dims() != 2) {
    return Status::InvalidArgument("dense conversion requires a 2-d array");
  }
  if (in.attr_schema()->num_fields() != 1 ||
      !IsNumeric(in.attr_schema()->field(0).type)) {
    return Status::InvalidArgument(
        "dense conversion requires one numeric attribute");
  }
  *row_start = in.dim(0).start;
  *col_start = in.dim(1).start;
  DenseMatrix m(in.dim(0).length, in.dim(1).length);
  NEXUS_RETURN_NOT_OK(ScatterToDense(in, *row_start, *col_start, &m));
  return m;
}

Status ScatterToDense(const NDArray& in, int64_t row_off, int64_t col_off,
                      DenseMatrix* m) {
  NEXUS_RETURN_NOT_OK(in.EnsureAllResident());
  for (const ArrayChunk* chunk : in.chunks()) {
    const Column& attr = chunk->attrs[0];
    const int64_t r0 = chunk->lo[0] - row_off, c0 = chunk->lo[1] - col_off;
    int64_t off = 0;
    for (int64_t r = 0; r < chunk->extent[0]; ++r) {
      for (int64_t c = 0; c < chunk->extent[1]; ++c, ++off) {
        if (!chunk->occupied[static_cast<size_t>(off)] || attr.IsNull(off)) continue;
        m->Set(r0 + r, c0 + c, attr.NumericAt(off));
      }
    }
  }
  return Status::OK();
}

Result<NDArrayPtr> ToNDArray(const DenseMatrix& m, const std::string& row_name,
                             const std::string& col_name, const std::string& attr,
                             int64_t row_start, int64_t col_start,
                             int64_t chunk_size, bool drop_zeros) {
  if (m.rows() == 0 || m.cols() == 0) {
    return Status::InvalidArgument("cannot convert an empty matrix");
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr attrs,
                         Schema::Make({Field::Attr(attr, DataType::kFloat64)}));
  NEXUS_ASSIGN_OR_RETURN(
      std::shared_ptr<NDArray> out,
      NDArray::Make({DimensionSpec{row_name, row_start, m.rows(), chunk_size},
                     DimensionSpec{col_name, col_start, m.cols(), chunk_size}},
                    attrs));
  // Whole chunks at a time, in grid order. A dropped zero leaves its cell
  // unoccupied holding +0.0, and a chunk with no entry left is never
  // created.
  const int64_t cs = out->dim(0).chunk_size;
  for (int64_t gr = 0; gr * cs < m.rows(); ++gr) {
    for (int64_t gc = 0; gc * cs < m.cols(); ++gc) {
      ArrayChunk chunk = out->BlankChunk({gr, gc});
      Column& attr = chunk.attrs[0];
      bool any = false;
      int64_t off = 0;
      for (int64_t r = gr * cs; r < gr * cs + chunk.extent[0]; ++r) {
        for (int64_t c = gc * cs; c < gc * cs + chunk.extent[1]; ++c, ++off) {
          double v = m.At(r, c);
          if (drop_zeros && v == 0.0) continue;
          attr.SetFloat64(off, v);
          chunk.occupied[static_cast<size_t>(off)] = 1;
          any = true;
        }
      }
      if (any) NEXUS_RETURN_NOT_OK(out->PutChunk(std::move(chunk)));
    }
  }
  return NDArrayPtr(std::move(out));
}

}  // namespace linalg
}  // namespace nexus
