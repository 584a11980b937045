#include "linalg/sparse.h"

#include <algorithm>

#include "algebra/csr.h"
#include "algebra/kernels.h"
#include "common/str_util.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace linalg {

namespace {

algebra::CsrView View(const SparseMatrixCSR& m) {
  return algebra::CsrView{m.rows(), m.cols(), m.row_ptr().data(),
                          m.col_idx().data(), m.values().data()};
}

}  // namespace

Result<SparseMatrixCSR> SparseMatrixCSR::FromTriplets(
    int64_t rows, int64_t cols, std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative sparse matrix shape");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::IndexError(StrCat("triplet (", t.row, ", ", t.col,
                                       ") outside ", rows, "x", cols));
    }
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  // Explicit zeros are *kept*: a 0-valued triplet (and duplicates summing to
  // exactly 0) stays a stored entry. The semi-ring contract only requires
  // that absent entries behave as the ring zero — stored zeros flow through
  // SpMV/SpGEMM like any value (they contribute ±0.0 terms).
  SparseMatrixCSR m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    // Sum duplicates.
    size_t j = i + 1;
    double sum = triplets[i].value;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_ptr_[static_cast<size_t>(triplets[i].row) + 1]++;
    i = j;
  }
  for (size_t r = 1; r < m.row_ptr_.size(); ++r) m.row_ptr_[r] += m.row_ptr_[r - 1];
  return m;
}

Result<std::vector<double>> SparseMatrixCSR::SpMV(
    const std::vector<double>& x) const {
  if (static_cast<int64_t>(x.size()) != cols_) {
    return Status::InvalidArgument("SpMV shape mismatch");
  }
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.SpMV");
  span.AddCounter("entries", nnz());
  algebra::CountLowered("algebra.spmv_lowered");
  return algebra::MxV<algebra::PlusTimes>(View(*this), x);
}

Result<SparseMatrixCSR> SparseMatrixCSR::SpGEMM(const SparseMatrixCSR& b) const {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "la.SpGEMM");
  span.AddCounter("nnz_left", static_cast<int64_t>(values_.size()));
  if (cols_ != b.rows_) {
    return Status::InvalidArgument("SpGEMM shape mismatch");
  }
  std::vector<Triplet> out;
  {
    telemetry::SpanGuard kernel(telemetry::kCategoryEngine, "alg.SpGEMM");
    kernel.AddCounter("entries", nnz() + b.nnz());
    algebra::CountLowered("algebra.spgemm_lowered");
    out = algebra::MxM<algebra::PlusTimes>(View(*this), View(b));
  }
  return FromTriplets(rows_, b.cols_, std::move(out));
}

DenseMatrix SparseMatrixCSR::ToDense() const {
  DenseMatrix m(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      m.Set(r, col_idx_[static_cast<size_t>(i)], values_[static_cast<size_t>(i)]);
    }
  }
  return m;
}

std::vector<Triplet> SparseMatrixCSR::ToTriplets() const {
  std::vector<Triplet> out;
  out.reserve(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      out.push_back(Triplet{r, col_idx_[static_cast<size_t>(i)],
                            values_[static_cast<size_t>(i)]});
    }
  }
  return out;
}

}  // namespace linalg
}  // namespace nexus
