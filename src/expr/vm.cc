#include "expr/vm.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "common/str_util.h"

namespace nexus {

namespace {

// A comparison lane from lt = x < y and gt = y < x, with no branch. It is
// predicate P applied to Value::Compare's three-way result (-1 when lt, 1
// when gt, else 0) for every input, NaN included: with a NaN both lt and gt
// are false, so NaN compares equal to everything, as Value::Compare's Cmp
// template makes it.
template <CmpPred P>
inline uint8_t PredLane(bool lt, bool gt) {
  const uint8_t l = lt, g = gt;
  if constexpr (P == CmpPred::kEq) {
    return (l | g) ^ 1;
  } else if constexpr (P == CmpPred::kNe) {
    return l | g;
  } else if constexpr (P == CmpPred::kLt) {
    return l;
  } else if constexpr (P == CmpPred::kLe) {
    return g ^ 1;
  } else if constexpr (P == CmpPred::kGt) {
    return g;
  } else {
    return l ^ 1;  // kGe
  }
}

// Strict unary op: null in → null out; computes valid lanes only and writes
// the type default into null lanes.
template <typename TA, typename TO, typename F>
inline void Strict1(const VMReg& a, const TA* av, VMReg* out, TO* ov,
                    int64_t n, F f) {
  if (a.valid == nullptr) {
    for (int64_t i = 0; i < n; ++i) ov[i] = f(av[i]);
    out->ClearValid();
    return;
  }
  uint8_t* v = out->OwnValid(n);
  for (int64_t i = 0; i < n; ++i) {
    if (a.valid[i]) {
      ov[i] = f(av[i]);
    } else {
      ov[i] = TO();
      v[i] = 0;
    }
  }
}

// Strict binary op.
template <typename TA, typename TB, typename TO, typename F>
inline void Strict2(const VMReg& a, const TA* av, const VMReg& b,
                    const TB* bv, VMReg* out, TO* ov, int64_t n, F f) {
  if (a.valid == nullptr && b.valid == nullptr) {
    for (int64_t i = 0; i < n; ++i) ov[i] = f(av[i], bv[i]);
    out->ClearValid();
    return;
  }
  uint8_t* v = out->OwnValid(n);
  for (int64_t i = 0; i < n; ++i) {
    if (a.LaneValid(i) && b.LaneValid(i)) {
      ov[i] = f(av[i], bv[i]);
    } else {
      ov[i] = TO();
      v[i] = 0;
    }
  }
}

// Null-producing unary op: `f` stores into *out and reports lane validity
// (sqrt of negative → null, log of non-positive → null).
template <typename TA, typename TO, typename F>
inline void Fallible1(const VMReg& a, const TA* av, VMReg* out, TO* ov,
                      int64_t n, F f) {
  uint8_t* v = out->OwnValid(n);
  for (int64_t i = 0; i < n; ++i) {
    bool ok = a.LaneValid(i) && f(av[i], &ov[i]);
    if (!ok) {
      ov[i] = TO();
      v[i] = 0;
    }
  }
}

// Null-producing binary op (div/mod by zero → null).
template <typename TA, typename TB, typename TO, typename F>
inline void Fallible2(const VMReg& a, const TA* av, const VMReg& b,
                      const TB* bv, VMReg* out, TO* ov, int64_t n, F f) {
  uint8_t* v = out->OwnValid(n);
  for (int64_t i = 0; i < n; ++i) {
    bool ok = a.LaneValid(i) && b.LaneValid(i) && f(av[i], bv[i], &ov[i]);
    if (!ok) {
      ov[i] = TO();
      v[i] = 0;
    }
  }
}

// Strict comparison: one lane loop instantiated per predicate and type, so
// the loop body is two compares and a bitwise op, with no switch or branch.
// Bool lanes are normalized to 0/1 first; strings compare once and take the
// sign of the result.
template <CmpPred P, typename T>
inline void CmpLanes(const VMReg& a, const T* av, const VMReg& b, const T* bv,
                     VMReg* out, uint8_t* ov, int64_t n) {
  Strict2(a, av, b, bv, out, ov, n, [](const T& x, const T& y) {
    if constexpr (std::is_same_v<T, std::string>) {
      const int c = x.compare(y);
      return PredLane<P>(c < 0, c > 0);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      const uint8_t u = x != 0, v = y != 0;
      return PredLane<P>(u < v, v < u);
    } else {
      return PredLane<P>(x < y, y < x);
    }
  });
}

template <typename T>
inline void Compare(CmpPred p, const VMReg& a, const T* av, const VMReg& b,
                    const T* bv, VMReg* out, uint8_t* ov, int64_t n) {
  switch (p) {
    case CmpPred::kEq: CmpLanes<CmpPred::kEq>(a, av, b, bv, out, ov, n); break;
    case CmpPred::kNe: CmpLanes<CmpPred::kNe>(a, av, b, bv, out, ov, n); break;
    case CmpPred::kLt: CmpLanes<CmpPred::kLt>(a, av, b, bv, out, ov, n); break;
    case CmpPred::kLe: CmpLanes<CmpPred::kLe>(a, av, b, bv, out, ov, n); break;
    case CmpPred::kGt: CmpLanes<CmpPred::kGt>(a, av, b, bv, out, ov, n); break;
    case CmpPred::kGe: CmpLanes<CmpPred::kGe>(a, av, b, bv, out, ov, n); break;
  }
}

// Variadic strict fold (min/max): all args valid → fold; else null.
// `take(candidate, best)` mirrors the interpreter's Compare(best) < / > 0.
template <typename T, typename F>
inline void FoldMinMax(const std::vector<VMReg>& regs,
                       const std::vector<uint16_t>& args, const T* const* ptrs,
                       VMReg* out, T* ov, int64_t n, F take) {
  bool any_null = false;
  for (uint16_t r : args) any_null |= regs[r].valid != nullptr;
  if (!any_null) {
    for (int64_t i = 0; i < n; ++i) {
      T best = ptrs[0][i];
      for (size_t k = 1; k < args.size(); ++k) {
        if (take(ptrs[k][i], best)) best = ptrs[k][i];
      }
      ov[i] = best;
    }
    out->ClearValid();
    return;
  }
  uint8_t* v = out->OwnValid(n);
  for (int64_t i = 0; i < n; ++i) {
    bool ok = true;
    for (uint16_t r : args) ok &= regs[r].LaneValid(i);
    if (!ok) {
      ov[i] = T();
      v[i] = 0;
      continue;
    }
    T best = ptrs[0][i];
    for (size_t k = 1; k < args.size(); ++k) {
      if (take(ptrs[k][i], best)) best = ptrs[k][i];
    }
    ov[i] = best;
  }
}

}  // namespace

void ExprVM::Bind(const Table& table, int64_t capacity) {
  table_ = &table;
  regs_.clear();
  regs_.resize(static_cast<size_t>(prog_->num_regs()));
  for (int r = 0; r < prog_->num_regs(); ++r) {
    regs_[static_cast<size_t>(r)].type =
        prog_->reg_types[static_cast<size_t>(r)];
  }
  body_.clear();
  for (const Instr& in : prog_->instrs) {
    switch (in.op) {
      case OpCode::kLoadConst: {
        VMReg& o = regs_[in.dst];
        const Value& v = prog_->const_pool[in.aux];
        switch (o.type) {
          case DataType::kInt64:
            o.vi.assign(static_cast<size_t>(capacity), v.AsInt64());
            o.i = o.vi.data();
            break;
          case DataType::kFloat64:
            o.vd.assign(static_cast<size_t>(capacity), v.AsFloat64());
            o.d = o.vd.data();
            break;
          case DataType::kBool:
            o.vb.assign(static_cast<size_t>(capacity), v.AsBool() ? 1 : 0);
            o.b = o.vb.data();
            break;
          case DataType::kString:
            o.vs.assign(static_cast<size_t>(capacity), v.AsString());
            o.s = o.vs.data();
            break;
        }
        o.ClearValid();
        break;
      }
      case OpCode::kLoadNull: {
        VMReg& o = regs_[in.dst];
        o.vd.assign(static_cast<size_t>(capacity), 0.0);
        o.d = o.vd.data();
        o.vvalid.assign(static_cast<size_t>(capacity), 0);
        o.valid = o.vvalid.data();
        break;
      }
      default:
        body_.push_back(&in);
        break;
    }
  }
  len_ = 0;
}

void ExprVM::Run(int64_t begin, int64_t end) {
  len_ = end - begin;
  for (const Instr* in : body_) Exec(*in, begin, len_);
}

void ExprVM::Exec(const Instr& in, int64_t begin, int64_t n) {
  VMReg& o = regs_[in.dst];
  const VMReg& A = regs_[in.a];
  const VMReg& B = regs_[in.b];
  switch (in.op) {
    case OpCode::kLoadConst:
    case OpCode::kLoadNull:
      break;  // prologue; handled in Bind
    case OpCode::kLoadCol: {
      const Column& col = table_->column(in.aux);
      switch (col.type()) {
        case DataType::kInt64: o.i = col.ints().data() + begin; break;
        case DataType::kFloat64: o.d = col.doubles().data() + begin; break;
        case DataType::kBool: o.b = col.bools().data() + begin; break;
        case DataType::kString: o.s = col.strings().data() + begin; break;
      }
      o.valid =
          col.has_nulls() ? col.validity().data() + begin : nullptr;
      break;
    }
    case OpCode::kCastIntToDouble:
      Strict1(A, A.i, &o, o.OwnD(n), n,
              [](int64_t x) { return static_cast<double>(x); });
      break;
    case OpCode::kCastDoubleToInt:
      Strict1(A, A.d, &o, o.OwnI(n), n,
              [](double x) { return static_cast<int64_t>(x); });
      break;
    case OpCode::kCastBoolToInt:
      Strict1(A, A.b, &o, o.OwnI(n), n,
              [](uint8_t x) { return static_cast<int64_t>(x ? 1 : 0); });
      break;
    case OpCode::kCastBoolToDouble:
      Strict1(A, A.b, &o, o.OwnD(n), n,
              [](uint8_t x) { return x ? 1.0 : 0.0; });
      break;
    case OpCode::kCastIntToBool:
      Strict1(A, A.i, &o, o.OwnB(n), n,
              [](int64_t x) { return static_cast<uint8_t>(x != 0); });
      break;
    case OpCode::kCastDoubleToBool:
      Strict1(A, A.d, &o, o.OwnB(n), n,
              [](double x) { return static_cast<uint8_t>(x != 0.0); });
      break;
    case OpCode::kCastIntToString:
      Strict1(A, A.i, &o, o.OwnS(n), n,
              [](int64_t x) { return StrCat(x); });
      break;
    case OpCode::kCastDoubleToString:
      Strict1(A, A.d, &o, o.OwnS(n), n,
              [](double x) { return FormatDouble(x); });
      break;
    case OpCode::kCastBoolToString:
      Strict1(A, A.b, &o, o.OwnS(n), n, [](uint8_t x) {
        return std::string(x ? "true" : "false");
      });
      break;
    case OpCode::kNegInt:
      Strict1(A, A.i, &o, o.OwnI(n), n, [](int64_t x) { return -x; });
      break;
    case OpCode::kNegDouble:
      Strict1(A, A.d, &o, o.OwnD(n), n, [](double x) { return -x; });
      break;
    case OpCode::kNotBool:
      Strict1(A, A.b, &o, o.OwnB(n), n,
              [](uint8_t x) { return static_cast<uint8_t>(x ? 0 : 1); });
      break;
    case OpCode::kAddInt:
      Strict2(A, A.i, B, B.i, &o, o.OwnI(n), n,
              [](int64_t x, int64_t y) { return x + y; });
      break;
    case OpCode::kSubInt:
      Strict2(A, A.i, B, B.i, &o, o.OwnI(n), n,
              [](int64_t x, int64_t y) { return x - y; });
      break;
    case OpCode::kMulInt:
      Strict2(A, A.i, B, B.i, &o, o.OwnI(n), n,
              [](int64_t x, int64_t y) { return x * y; });
      break;
    case OpCode::kModInt:
      Fallible2(A, A.i, B, B.i, &o, o.OwnI(n), n,
                [](int64_t x, int64_t y, int64_t* out) {
                  if (y == 0) return false;
                  *out = x % y;
                  return true;
                });
      break;
    case OpCode::kAddDouble:
      Strict2(A, A.d, B, B.d, &o, o.OwnD(n), n,
              [](double x, double y) { return x + y; });
      break;
    case OpCode::kSubDouble:
      Strict2(A, A.d, B, B.d, &o, o.OwnD(n), n,
              [](double x, double y) { return x - y; });
      break;
    case OpCode::kMulDouble:
      Strict2(A, A.d, B, B.d, &o, o.OwnD(n), n,
              [](double x, double y) { return x * y; });
      break;
    case OpCode::kDivDouble:
      Fallible2(A, A.d, B, B.d, &o, o.OwnD(n), n,
                [](double x, double y, double* out) {
                  if (y == 0.0) return false;
                  *out = x / y;
                  return true;
                });
      break;
    case OpCode::kConcatStr:
      Strict2(A, A.s, B, B.s, &o, o.OwnS(n), n,
              [](const std::string& x, const std::string& y) { return x + y; });
      break;
    case OpCode::kCmpInt:
      Compare(static_cast<CmpPred>(in.aux), A, A.i, B, B.i, &o, o.OwnB(n), n);
      break;
    case OpCode::kCmpDouble:
      Compare(static_cast<CmpPred>(in.aux), A, A.d, B, B.d, &o, o.OwnB(n), n);
      break;
    case OpCode::kCmpBool:
      Compare(static_cast<CmpPred>(in.aux), A, A.b, B, B.b, &o, o.OwnB(n), n);
      break;
    case OpCode::kCmpString:
      Compare(static_cast<CmpPred>(in.aux), A, A.s, B, B.s, &o, o.OwnB(n), n);
      break;
    case OpCode::kAndBool: {
      uint8_t* ov = o.OwnB(n);
      if (A.valid == nullptr && B.valid == nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          ov[i] = static_cast<uint8_t>((A.b[i] != 0) & (B.b[i] != 0));
        }
        o.ClearValid();
        break;
      }
      uint8_t* v = o.OwnValid(n);
      for (int64_t i = 0; i < n; ++i) {
        bool avalid = A.LaneValid(i), bvalid = B.LaneValid(i);
        // Kleene: false dominates null.
        if ((avalid && !A.b[i]) || (bvalid && !B.b[i])) {
          ov[i] = 0;
        } else if (!avalid || !bvalid) {
          ov[i] = 0;
          v[i] = 0;
        } else {
          ov[i] = 1;
        }
      }
      break;
    }
    case OpCode::kOrBool: {
      uint8_t* ov = o.OwnB(n);
      if (A.valid == nullptr && B.valid == nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          ov[i] = static_cast<uint8_t>((A.b[i] != 0) | (B.b[i] != 0));
        }
        o.ClearValid();
        break;
      }
      uint8_t* v = o.OwnValid(n);
      for (int64_t i = 0; i < n; ++i) {
        bool avalid = A.LaneValid(i), bvalid = B.LaneValid(i);
        // Kleene: true dominates null.
        if ((avalid && A.b[i]) || (bvalid && B.b[i])) {
          ov[i] = 1;
        } else if (!avalid || !bvalid) {
          ov[i] = 0;
          v[i] = 0;
        } else {
          ov[i] = 0;
        }
      }
      break;
    }
    case OpCode::kAbsInt:
      Strict1(A, A.i, &o, o.OwnI(n), n,
              [](int64_t x) { return static_cast<int64_t>(std::llabs(x)); });
      break;
    case OpCode::kAbsDouble:
      Strict1(A, A.d, &o, o.OwnD(n), n, [](double x) { return std::fabs(x); });
      break;
    case OpCode::kSignInt:
      // Interpreter computes sign on AsDouble; for int64 the double's sign
      // always matches the int's, so compare the int directly (exact).
      Strict1(A, A.i, &o, o.OwnI(n), n, [](int64_t x) {
        return static_cast<int64_t>(x > 0 ? 1 : (x < 0 ? -1 : 0));
      });
      break;
    case OpCode::kSignDouble:
      Strict1(A, A.d, &o, o.OwnD(n), n, [](double x) {
        return static_cast<double>(x > 0 ? 1 : (x < 0 ? -1 : 0));
      });
      break;
    case OpCode::kSqrt:
      Fallible1(A, A.d, &o, o.OwnD(n), n, [](double x, double* out) {
        if (x < 0) return false;
        *out = std::sqrt(x);
        return true;
      });
      break;
    case OpCode::kExp:
      Strict1(A, A.d, &o, o.OwnD(n), n, [](double x) { return std::exp(x); });
      break;
    case OpCode::kLog:
      Fallible1(A, A.d, &o, o.OwnD(n), n, [](double x, double* out) {
        if (x <= 0) return false;
        *out = std::log(x);
        return true;
      });
      break;
    case OpCode::kSin:
      Strict1(A, A.d, &o, o.OwnD(n), n, [](double x) { return std::sin(x); });
      break;
    case OpCode::kCos:
      Strict1(A, A.d, &o, o.OwnD(n), n, [](double x) { return std::cos(x); });
      break;
    case OpCode::kPow:
      Strict2(A, A.d, B, B.d, &o, o.OwnD(n), n,
              [](double x, double y) { return std::pow(x, y); });
      break;
    case OpCode::kFloor:
      Strict1(A, A.d, &o, o.OwnI(n), n, [](double x) {
        return static_cast<int64_t>(std::floor(x));
      });
      break;
    case OpCode::kCeil:
      Strict1(A, A.d, &o, o.OwnI(n), n, [](double x) {
        return static_cast<int64_t>(std::ceil(x));
      });
      break;
    case OpCode::kRound:
      Strict1(A, A.d, &o, o.OwnI(n), n, [](double x) {
        return static_cast<int64_t>(std::llround(x));
      });
      break;
    case OpCode::kMinInt:
    case OpCode::kMaxInt: {
      std::vector<const int64_t*> ptrs;
      for (uint16_t r : in.args) ptrs.push_back(regs_[r].i);
      bool is_min = in.op == OpCode::kMinInt;
      FoldMinMax(regs_, in.args, ptrs.data(), &o, o.OwnI(n), n,
                 [is_min](int64_t cand, int64_t best) {
                   return is_min ? cand < best : cand > best;
                 });
      break;
    }
    case OpCode::kMinDouble:
    case OpCode::kMaxDouble: {
      std::vector<const double*> ptrs;
      for (uint16_t r : in.args) ptrs.push_back(regs_[r].d);
      bool is_min = in.op == OpCode::kMinDouble;
      // `cand < best` / `cand > best` matches the interpreter's
      // Compare(best) < 0 / > 0 fold, including NaN never being taken.
      FoldMinMax(regs_, in.args, ptrs.data(), &o, o.OwnD(n), n,
                 [is_min](double cand, double best) {
                   return is_min ? cand < best : cand > best;
                 });
      break;
    }
    case OpCode::kMinString:
    case OpCode::kMaxString: {
      std::vector<const std::string*> ptrs;
      for (uint16_t r : in.args) ptrs.push_back(regs_[r].s);
      bool is_min = in.op == OpCode::kMinString;
      FoldMinMax(regs_, in.args, ptrs.data(), &o, o.OwnS(n), n,
                 [is_min](const std::string& cand, const std::string& best) {
                   int c = cand.compare(best);
                   return is_min ? c < 0 : c > 0;
                 });
      break;
    }
    case OpCode::kIf: {
      const VMReg& C = regs_[in.c];
      uint8_t* v = o.OwnValid(n);
      auto pick = [&](auto* ov, auto sel) {
        for (int64_t i = 0; i < n; ++i) {
          if (!A.LaneValid(i)) {
            ov[i] = std::remove_reference_t<decltype(ov[0])>();
            v[i] = 0;
            continue;
          }
          const VMReg& src = A.b[i] ? B : C;
          if (!src.LaneValid(i)) {
            ov[i] = std::remove_reference_t<decltype(ov[0])>();
            v[i] = 0;
            continue;
          }
          ov[i] = sel(src, i);
        }
      };
      switch (o.type) {
        case DataType::kInt64:
          pick(o.OwnI(n), [](const VMReg& r, int64_t i) { return r.i[i]; });
          break;
        case DataType::kFloat64:
          pick(o.OwnD(n), [](const VMReg& r, int64_t i) { return r.d[i]; });
          break;
        case DataType::kBool:
          pick(o.OwnB(n), [](const VMReg& r, int64_t i) { return r.b[i]; });
          break;
        case DataType::kString:
          pick(o.OwnS(n), [](const VMReg& r, int64_t i) { return r.s[i]; });
          break;
      }
      break;
    }
    case OpCode::kCoalesce: {
      uint8_t* v = o.OwnValid(n);
      auto fill = [&](auto* ov, auto sel) {
        for (int64_t i = 0; i < n; ++i) {
          bool found = false;
          for (uint16_t r : in.args) {
            if (regs_[r].LaneValid(i)) {
              ov[i] = sel(regs_[r], i);
              found = true;
              break;
            }
          }
          if (!found) {
            ov[i] = std::remove_reference_t<decltype(ov[0])>();
            v[i] = 0;
          }
        }
      };
      switch (o.type) {
        case DataType::kInt64:
          fill(o.OwnI(n), [](const VMReg& r, int64_t i) { return r.i[i]; });
          break;
        case DataType::kFloat64:
          fill(o.OwnD(n), [](const VMReg& r, int64_t i) { return r.d[i]; });
          break;
        case DataType::kBool:
          fill(o.OwnB(n), [](const VMReg& r, int64_t i) { return r.b[i]; });
          break;
        case DataType::kString:
          fill(o.OwnS(n), [](const VMReg& r, int64_t i) { return r.s[i]; });
          break;
      }
      break;
    }
    case OpCode::kIsNull: {
      uint8_t* ov = o.OwnB(n);
      for (int64_t i = 0; i < n; ++i) {
        ov[i] = static_cast<uint8_t>(!A.LaneValid(i));
      }
      o.ClearValid();
      break;
    }
    case OpCode::kLength:
      Strict1(A, A.s, &o, o.OwnI(n), n, [](const std::string& x) {
        return static_cast<int64_t>(x.size());
      });
      break;
    case OpCode::kConcat: {
      std::string* ov = o.OwnS(n);
      bool any_null = false;
      for (uint16_t r : in.args) any_null |= regs_[r].valid != nullptr;
      if (any_null) {
        uint8_t* v = o.OwnValid(n);
        for (int64_t i = 0; i < n; ++i) {
          bool ok = true;
          for (uint16_t r : in.args) ok &= regs_[r].LaneValid(i);
          if (!ok) {
            ov[i].clear();
            v[i] = 0;
            continue;
          }
          ov[i].clear();
          for (uint16_t r : in.args) ov[i] += regs_[r].s[i];
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          ov[i].clear();
          for (uint16_t r : in.args) ov[i] += regs_[r].s[i];
        }
        o.ClearValid();
      }
      break;
    }
    case OpCode::kLower:
      Strict1(A, A.s, &o, o.OwnS(n), n, [](const std::string& x) {
        std::string s = x;
        for (char& c : s) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        return s;
      });
      break;
    case OpCode::kUpper:
      Strict1(A, A.s, &o, o.OwnS(n), n, [](const std::string& x) {
        std::string s = x;
        for (char& c : s) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        return s;
      });
      break;
    case OpCode::kSubstr: {
      const VMReg& C = regs_[in.c];
      std::string* ov = o.OwnS(n);
      if (A.valid == nullptr && B.valid == nullptr && C.valid == nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          const std::string& s = A.s[i];
          int64_t pos = std::clamp<int64_t>(B.i[i], 0,
                                            static_cast<int64_t>(s.size()));
          int64_t len = std::max<int64_t>(0, C.i[i]);
          ov[i] = s.substr(static_cast<size_t>(pos), static_cast<size_t>(len));
        }
        o.ClearValid();
        break;
      }
      uint8_t* v = o.OwnValid(n);
      for (int64_t i = 0; i < n; ++i) {
        if (!A.LaneValid(i) || !B.LaneValid(i) || !C.LaneValid(i)) {
          ov[i].clear();
          v[i] = 0;
          continue;
        }
        const std::string& s = A.s[i];
        int64_t pos = std::clamp<int64_t>(B.i[i], 0,
                                          static_cast<int64_t>(s.size()));
        int64_t len = std::max<int64_t>(0, C.i[i]);
        ov[i] = s.substr(static_cast<size_t>(pos), static_cast<size_t>(len));
      }
      break;
    }
  }
}

namespace {

void AppendRegister(const VMReg& r, int64_t n, Column* out) {
  switch (r.type) {
    case DataType::kInt64:
      for (int64_t i = 0; i < n; ++i) {
        if (r.LaneValid(i)) {
          out->AppendInt64(r.i[i]);
        } else {
          out->AppendNull();
        }
      }
      break;
    case DataType::kFloat64:
      for (int64_t i = 0; i < n; ++i) {
        if (r.LaneValid(i)) {
          out->AppendFloat64(r.d[i]);
        } else {
          out->AppendNull();
        }
      }
      break;
    case DataType::kBool:
      for (int64_t i = 0; i < n; ++i) {
        if (r.LaneValid(i)) {
          out->AppendBool(r.b[i] != 0);
        } else {
          out->AppendNull();
        }
      }
      break;
    case DataType::kString:
      for (int64_t i = 0; i < n; ++i) {
        if (r.LaneValid(i)) {
          out->AppendString(r.s[i]);
        } else {
          out->AppendNull();
        }
      }
      break;
  }
}

void AppendRegisterLanes(const VMReg& r, std::span<const int64_t> lanes,
                         Column* out) {
  switch (r.type) {
    case DataType::kInt64:
      for (int64_t i : lanes) {
        if (r.LaneValid(i)) {
          out->AppendInt64(r.i[i]);
        } else {
          out->AppendNull();
        }
      }
      break;
    case DataType::kFloat64:
      for (int64_t i : lanes) {
        if (r.LaneValid(i)) {
          out->AppendFloat64(r.d[i]);
        } else {
          out->AppendNull();
        }
      }
      break;
    case DataType::kBool:
      for (int64_t i : lanes) {
        if (r.LaneValid(i)) {
          out->AppendBool(r.b[i] != 0);
        } else {
          out->AppendNull();
        }
      }
      break;
    case DataType::kString:
      for (int64_t i : lanes) {
        if (r.LaneValid(i)) {
          out->AppendString(r.s[i]);
        } else {
          out->AppendNull();
        }
      }
      break;
  }
}

}  // namespace

void ExprVM::AppendOutput(int k, Column* out) const {
  AppendRegister(out_reg(k), len_, out);
}

void ExprVM::AppendOutputLanes(int k, std::span<const int64_t> lanes,
                               Column* out) const {
  AppendRegisterLanes(out_reg(k), lanes, out);
}

int64_t SelectTrueLanes(const uint8_t* bits, const uint8_t* valid, int64_t n,
                        int64_t base, int64_t* out) {
  int64_t k = 0;
  if (valid == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      out[k] = base + i;
      k += bits[i] != 0;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      out[k] = base + i;
      k += (bits[i] != 0) & (valid[i] != 0);
    }
  }
  return k;
}

int64_t NarrowTrueLanes(const uint8_t* bits, const uint8_t* valid,
                        int64_t* lanes, int64_t count) {
  int64_t k = 0;
  if (valid == nullptr) {
    for (int64_t j = 0; j < count; ++j) {
      const int64_t i = lanes[j];
      lanes[k] = i;
      k += bits[i] != 0;
    }
  } else {
    for (int64_t j = 0; j < count; ++j) {
      const int64_t i = lanes[j];
      lanes[k] = i;
      k += (bits[i] != 0) & (valid[i] != 0);
    }
  }
  return k;
}

}  // namespace nexus
