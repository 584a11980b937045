// Ring-parameterized kernels over compressed sparse row operands: the
// physical layout beneath the Join⊗ / Union⊕ / Reduce⊕ contract of
// algebra/kernels.h for matrix-shaped associative arrays (LaraDB keeps the
// kernel contract minimal and picks the layout below it; D4M binds
// associative arrays to sparse matrices). SparseMatrixCSR::SpMV/SpGEMM and
// graph::PageRank/Bfs run on these loops.
//
// Each kernel is a template over a ring type whose ⊕/⊗ are registry monoid
// ops fixed at compile time, so plus_times compiles to the plain
// `s += a * b` loop: no per-entry dispatch, boxing or hashing.
//
// Fold order and seeding are the generic kernels': every output folds its
// terms in ascending storage order (row order, then column order within a
// row); a `+` fold starts from the ring zero, a min/max/or fold from its
// first term; an output with no terms is the ring zero. Results are
// therefore bit-identical to the hash Join/Reduce composition of the same
// expression. The loops are sequential, so the thread count never matters.
#ifndef NEXUS_ALGEBRA_CSR_H_
#define NEXUS_ALGEBRA_CSR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "algebra/semiring.h"
#include "linalg/sparse.h"

namespace nexus {
namespace algebra {

/// A compile-time ring: ⊕ = P with identity Zero, ⊗ = T. A lifted
/// (COUNT-style) ring maps both ⊗ operands to one (1.0), so ⊗ yields one
/// per matching pair and a `+` fold counts pairs.
template <MonoidOp P, MonoidOp T, double Zero, bool Lift = false>
struct Ring {
  static constexpr MonoidOp kPlus = P;
  static constexpr MonoidOp kTimes = T;
  static constexpr double kZero = Zero;
  static constexpr bool kLift = Lift;
  /// t ⊕ t = t for every t that ⊗ yields (min, max; or over and's 0/1).
  static constexpr bool kIdempotent =
      P == MonoidOp::kMin || P == MonoidOp::kMax ||
      (P == MonoidOp::kOr && T == MonoidOp::kAnd);
  static double Plus(double a, double b) { return ApplyT<P>(a, b); }
  static double Times(double a, double b) {
    if constexpr (Lift) return ApplyT<T>(1.0, 1.0);
    return ApplyT<T>(a, b);
  }
  /// A fold's value after its first term t.
  static double First(double t) {
    if constexpr (P == MonoidOp::kAdd) return Plus(Zero, t);
    return t;
  }
};

/// The registry's rings (algebra/semiring.cc).
using PlusTimes = Ring<MonoidOp::kAdd, MonoidOp::kMul, 0.0>;
using MinPlus = Ring<MonoidOp::kMin, MonoidOp::kAdd,
                     std::numeric_limits<double>::infinity()>;
using MaxTimes = Ring<MonoidOp::kMax, MonoidOp::kMul, 0.0>;
using OrAnd = Ring<MonoidOp::kOr, MonoidOp::kAnd, 0.0>;
using CountRing = Ring<MonoidOp::kAdd, MonoidOp::kMul, 0.0, /*Lift=*/true>;

/// A borrowed CSR operand: row r's entries occupy [row_ptr[r],
/// row_ptr[r+1]) of col_idx/values. values == nullptr makes it a pattern
/// matrix whose every stored entry is 1.0 (an unweighted adjacency).
struct CsrView {
  int64_t rows = 0;
  int64_t cols = 0;
  const int64_t* row_ptr = nullptr;
  const int64_t* col_idx = nullptr;
  const double* values = nullptr;
};

/// A sparse vector: parallel index and value lists.
struct SparseVec {
  std::vector<int64_t> idx;
  std::vector<double> val;
};

namespace csr_internal {

/// Runs fn with an entry-value accessor for `m`, chosen once: a pattern
/// matrix reads the constant 1.0 (so x ⊗ 1.0 folds away), a valued one
/// reads its array.
template <typename Fn>
void WithValues(const CsrView& m, Fn&& fn) {
  if (m.values == nullptr) {
    fn([](int64_t) { return 1.0; });
  } else {
    const double* v = m.values;
    fn([v](int64_t i) { return v[i]; });
  }
}

}  // namespace csr_internal

/// y = A ⊕.⊗ x (x.size() == A.cols): y[r] folds A[r,k] ⊗ x[k] over row
/// r's stored entries.
template <typename R>
std::vector<double> MxV(const CsrView& a, const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(a.rows), R::kZero);
  csr_internal::WithValues(a, [&](auto val) {
    for (int64_t r = 0; r < a.rows; ++r) {
      int64_t i = a.row_ptr[r];
      const int64_t end = a.row_ptr[r + 1];
      if (i == end) continue;
      double s = R::First(R::Times(val(i), x[static_cast<size_t>(a.col_idx[i])]));
      for (++i; i < end; ++i) {
        s = R::Plus(s, R::Times(val(i), x[static_cast<size_t>(a.col_idx[i])]));
      }
      y[static_cast<size_t>(r)] = s;
    }
  });
  return y;
}

/// y ⊕= xᵀ ⊕.⊗ A (x.size() == A.rows, y->size() == A.cols), pushed row by
/// row: each y[c] folds its terms x[r] ⊗ A[r,c] onto its seed value in
/// ascending r. The caller seeds y (a base vector, or the ring zero).
template <typename R>
void VxMPush(const CsrView& a, const std::vector<double>& x,
             std::vector<double>* y) {
  double* out = y->data();
  csr_internal::WithValues(a, [&](auto val) {
    for (int64_t r = 0; r < a.rows; ++r) {
      const double xr = x[static_cast<size_t>(r)];
      for (int64_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        double& yc = out[a.col_idx[i]];
        yc = R::Plus(yc, R::Times(xr, val(i)));
      }
    }
  });
}

/// C = A ⊕.⊗ B (A.cols == B.rows) by Gustavson's row workspace. Each cell
/// folds A[r,k] ⊗ B[k,c] in ascending k; a per-column occupancy marker
/// (not a zero test: min_plus's zero is +∞) finds the touched cells.
/// Cells equal to the ring zero are not stored. Row-major triplets.
template <typename R>
std::vector<linalg::Triplet> MxM(const CsrView& a, const CsrView& b) {
  std::vector<double> ws(static_cast<size_t>(b.cols));
  std::vector<int64_t> owner(static_cast<size_t>(b.cols), -1);
  std::vector<int64_t> touched;
  std::vector<linalg::Triplet> out;
  csr_internal::WithValues(a, [&](auto av) {
    csr_internal::WithValues(b, [&](auto bv) {
      for (int64_t r = 0; r < a.rows; ++r) {
        touched.clear();
        for (int64_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const int64_t k = a.col_idx[i];
          const double x = av(i);
          for (int64_t j = b.row_ptr[k]; j < b.row_ptr[k + 1]; ++j) {
            const size_t c = static_cast<size_t>(b.col_idx[j]);
            const double t = R::Times(x, bv(j));
            if (owner[c] != r) {
              owner[c] = r;
              touched.push_back(static_cast<int64_t>(c));
              ws[c] = R::First(t);
            } else {
              ws[c] = R::Plus(ws[c], t);
            }
          }
        }
        std::sort(touched.begin(), touched.end());
        for (int64_t c : touched) {
          const double v = ws[static_cast<size_t>(c)];
          if (v != R::kZero) out.push_back(linalg::Triplet{r, c, v});
        }
      }
    });
  });
  return out;
}

/// MaskedVxM's per-column workspace: one state byte per column (compact,
/// so the mask test most visits end in stays cache-resident) and the
/// current step's fold. Settle the source before the first step.
struct TraversalMask {
  enum State : uint8_t { kUnreached, kReached, kSettled };
  explicit TraversalMask(int64_t cols)
      : state(static_cast<size_t>(cols), kUnreached),
        acc(static_cast<size_t>(cols)) {}
  std::vector<uint8_t> state;
  std::vector<double> acc;
};

/// One step of a masked traversal: next = frontierᵀ ⊕.⊗ A over the columns
/// `mask` has not settled. Newly reached columns land in `next` in
/// first-reach order (frontier order, then storage order), each folding its
/// terms in that order, and are settled before the step returns.
template <typename R>
void MaskedVxM(const CsrView& a, const SparseVec& frontier,
               TraversalMask* mask, SparseVec* next) {
  next->idx.clear();
  uint8_t* state = mask->state.data();
  double* acc = mask->acc.data();
  // When every term of the step is one value t (a pattern matrix under a
  // uniform frontier, as in BFS) and t ⊕ t = t, each column's fold is its
  // first term: the step only has to find the newly reached columns.
  const bool uniform =
      R::kIdempotent && a.values == nullptr && !frontier.val.empty() &&
      std::all_of(frontier.val.begin(), frontier.val.end(), [&](double v) {
        return std::bit_cast<uint64_t>(v) ==
               std::bit_cast<uint64_t>(frontier.val.front());
      });
  if (uniform) {
    for (int64_t u : frontier.idx) {
      for (int64_t i = a.row_ptr[u]; i < a.row_ptr[u + 1]; ++i) {
        const int64_t c = a.col_idx[i];
        if (state[c] != TraversalMask::kUnreached) continue;
        state[c] = TraversalMask::kSettled;
        next->idx.push_back(c);
      }
    }
    next->val.assign(next->idx.size(),
                     R::First(R::Times(frontier.val.front(), 1.0)));
    return;
  }
  csr_internal::WithValues(a, [&](auto val) {
    for (size_t f = 0; f < frontier.idx.size(); ++f) {
      const int64_t u = frontier.idx[f];
      const double xu = frontier.val[f];
      for (int64_t i = a.row_ptr[u]; i < a.row_ptr[u + 1]; ++i) {
        const int64_t c = a.col_idx[i];
        if (state[c] == TraversalMask::kSettled) continue;
        const double t = R::Times(xu, val(i));
        if (state[c] == TraversalMask::kUnreached) {
          state[c] = TraversalMask::kReached;
          acc[c] = R::First(t);
          next->idx.push_back(c);
        } else {
          acc[c] = R::Plus(acc[c], t);
        }
      }
    }
  });
  next->val.resize(next->idx.size());
  for (size_t k = 0; k < next->idx.size(); ++k) {
    const int64_t c = next->idx[k];
    next->val[k] = acc[c];
    state[c] = TraversalMask::kSettled;
  }
}

}  // namespace algebra
}  // namespace nexus

#endif  // NEXUS_ALGEBRA_CSR_H_
