#include "algebra/semiring.h"

#include <algorithm>
#include <limits>

#include "common/str_util.h"

namespace nexus {
namespace algebra {

const char* MonoidOpName(MonoidOp op) {
  switch (op) {
    case MonoidOp::kAdd:
      return "+";
    case MonoidOp::kMul:
      return "*";
    case MonoidOp::kMin:
      return "min";
    case MonoidOp::kMax:
      return "max";
    case MonoidOp::kOr:
      return "or";
    case MonoidOp::kAnd:
      return "and";
  }
  return "?";
}

double ApplyF(MonoidOp op, double a, double b) {
  switch (op) {
    case MonoidOp::kAdd:
      return ApplyT<MonoidOp::kAdd>(a, b);
    case MonoidOp::kMul:
      return ApplyT<MonoidOp::kMul>(a, b);
    case MonoidOp::kMin:
      return ApplyT<MonoidOp::kMin>(a, b);
    case MonoidOp::kMax:
      return ApplyT<MonoidOp::kMax>(a, b);
    case MonoidOp::kOr:
      return ApplyT<MonoidOp::kOr>(a, b);
    case MonoidOp::kAnd:
      return ApplyT<MonoidOp::kAnd>(a, b);
  }
  return 0.0;
}

int64_t ApplyI(MonoidOp op, int64_t a, int64_t b) {
  switch (op) {
    case MonoidOp::kAdd:
      return a + b;
    case MonoidOp::kMul:
      return a * b;
    case MonoidOp::kMin:
      return std::min(a, b);
    case MonoidOp::kMax:
      return std::max(a, b);
    case MonoidOp::kOr:
      return (a != 0 || b != 0) ? 1 : 0;
    case MonoidOp::kAnd:
      return (a != 0 && b != 0) ? 1 : 0;
  }
  return 0;
}

const std::vector<Semiring>& SemiringRegistry() {
  static const std::vector<Semiring> rings = [] {
    const double inf = std::numeric_limits<double>::infinity();
    const int64_t imax = std::numeric_limits<int64_t>::max();
    std::vector<Semiring> r;
    // Ordinary arithmetic: SUM aggregates, SpMV/SpGEMM contraction, the
    // PageRank propagation step.
    r.push_back(Semiring{"plus_times", MonoidOp::kAdd, MonoidOp::kMul,
                         /*zero_f=*/0.0, /*one_f=*/1.0,
                         /*zero_i=*/0, /*one_i=*/1, /*lift=*/false});
    // Tropical: shortest paths and BFS relaxation (level ⊗ edge = level+1).
    r.push_back(Semiring{"min_plus", MonoidOp::kMin, MonoidOp::kAdd,
                         /*zero_f=*/inf, /*one_f=*/0.0,
                         /*zero_i=*/imax, /*one_i=*/0, /*lift=*/false});
    // Most-reliable path over non-negative weights: 0 is both the
    // ⊕-identity (max(0, x) = x for x >= 0) and the ⊗-annihilator.
    r.push_back(Semiring{"max_times", MonoidOp::kMax, MonoidOp::kMul,
                         /*zero_f=*/0.0, /*one_f=*/1.0,
                         /*zero_i=*/0, /*one_i=*/1, /*lift=*/false});
    // Boolean reachability / existence.
    r.push_back(Semiring{"or_and", MonoidOp::kOr, MonoidOp::kAnd,
                         /*zero_f=*/0.0, /*one_f=*/1.0,
                         /*zero_i=*/0, /*one_i=*/1, /*lift=*/false});
    // COUNT: lift every stored value to 1, then ordinary (+,×) — Union⊕
    // counts entries, Join⊗ counts matching pairs.
    r.push_back(Semiring{"count", MonoidOp::kAdd, MonoidOp::kMul,
                         /*zero_f=*/0.0, /*one_f=*/1.0,
                         /*zero_i=*/0, /*one_i=*/1, /*lift=*/true});
    return r;
  }();
  return rings;
}

const Semiring* FindSemiring(const std::string& name) {
  for (const Semiring& s : SemiringRegistry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

// Domain samples the laws must hold on exactly. Boolean rings only make
// sense over {0, 1}; min_plus needs its infinite zero in the mix; the
// others use small non-negative integers where float arithmetic is exact
// (max_times distributes only on the non-negative domain).
std::vector<double> SampleDomain(const Semiring& s) {
  if (s.plus == MonoidOp::kOr || s.plus == MonoidOp::kAnd) return {0.0, 1.0};
  return {s.zero_f, s.one_f, 2.0, 3.0, 5.0};
}

}  // namespace

Status VerifyContracts(const Semiring& s) {
  const std::vector<double> dom = SampleDomain(s);
  auto plus = [&](double a, double b) { return ApplyF(s.plus, a, b); };
  auto times = [&](double a, double b) { return ApplyF(s.times, a, b); };
  auto fail = [&](const char* law, double a, double b, double c) {
    return Status::InvalidArgument(StrCat("semiring '", s.name, "' violates ",
                                          law, " at (", a, ", ", b, ", ", c,
                                          ")"));
  };
  for (double a : dom) {
    if (plus(s.zero_f, a) != a || plus(a, s.zero_f) != a) {
      return fail("plus-identity", a, s.zero_f, 0);
    }
    if (times(s.one_f, a) != a || times(a, s.one_f) != a) {
      return fail("times-identity", a, s.one_f, 0);
    }
    if (times(s.zero_f, a) != s.zero_f || times(a, s.zero_f) != s.zero_f) {
      return fail("zero-annihilation", a, s.zero_f, 0);
    }
    for (double b : dom) {
      if (plus(a, b) != plus(b, a)) return fail("plus-commutativity", a, b, 0);
      for (double c : dom) {
        if (plus(plus(a, b), c) != plus(a, plus(b, c))) {
          return fail("plus-associativity", a, b, c);
        }
        if (times(times(a, b), c) != times(a, times(b, c))) {
          return fail("times-associativity", a, b, c);
        }
        if (times(a, plus(b, c)) != plus(times(a, b), times(a, c))) {
          return fail("left-distributivity", a, b, c);
        }
        if (times(plus(a, b), c) != plus(times(a, c), times(b, c))) {
          return fail("right-distributivity", a, b, c);
        }
      }
    }
  }
  // The int64 domain mirrors the float checks on the finite samples.
  std::vector<int64_t> idom;
  for (double d : dom) {
    if (d == s.zero_f) {
      idom.push_back(s.zero_i);
    } else {
      idom.push_back(static_cast<int64_t>(d));
    }
  }
  auto iplus = [&](int64_t a, int64_t b) { return ApplyI(s.plus, a, b); };
  auto itimes = [&](int64_t a, int64_t b) { return ApplyI(s.times, a, b); };
  for (int64_t a : idom) {
    if (iplus(s.zero_i, a) != a) return fail("int plus-identity", double(a), 0, 0);
    if (itimes(s.one_i, a) != a || itimes(a, s.one_i) != a) {
      return fail("int times-identity", double(a), 0, 0);
    }
    for (int64_t b : idom) {
      // min_plus: skip ⊗ on the sentinel zero — +inf has no int64 analogue
      // beyond INT64_MAX, whose annihilation would overflow a + b.
      if (s.times == MonoidOp::kAdd &&
          (a == s.zero_i || b == s.zero_i) && s.zero_i != 0) {
        continue;
      }
      if (iplus(a, b) != iplus(b, a)) {
        return fail("int plus-commutativity", double(a), double(b), 0);
      }
      if (itimes(a, b) != itimes(b, a) && s.times != MonoidOp::kAdd) {
        // All registered ⊗ are commutative; cheap extra invariant.
        return fail("int times-commutativity", double(a), double(b), 0);
      }
    }
  }
  return Status::OK();
}

}  // namespace algebra
}  // namespace nexus
