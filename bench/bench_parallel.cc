// E11 — Morsel-driven parallelism: thread count vs speedup on the kernels
// the scheduler drives — a 1M-row hash join, a 1M-row hash aggregate, and a
// blocked GEMM. Every parallel arm is verified byte-identical to the
// thread_count = 1 result (the determinism contract: morsel decomposition
// depends only on job size, results merge in morsel order).
//
// Speedup is meaningful only when the host has cores to spare; on a 1-core
// box all arms time the same and the table shows ~1.0x. The byte-identical
// checks hold regardless.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "algebra/kernels.h"
#include "bench_json.h"
#include "same_bits.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "expr/builder.h"
#include "linalg/dense.h"
#include "relational/engine.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

TablePtr MakeFactTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("v", DataType::kFloat64)})
                    .ValueOrDie();
  std::vector<int64_t> ks(static_cast<size_t>(rows));
  std::vector<double> vs(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    ks[static_cast<size_t>(i)] = rng.NextInt(0, rows / 16 + 1);
    vs[static_cast<size_t>(i)] = rng.NextDouble(0, 100);
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64(std::move(ks)));
  cols.push_back(Column::FromFloat64(std::move(vs)));
  return Table::Make(s, std::move(cols)).ValueOrDie();
}

// Best-of-3 wall time of fn() at the given thread budget; the first call's
// result is returned for the identity check.
template <typename Fn>
auto TimeAt(int threads, Fn fn, double* ms) {
  SetThreadCount(threads);
  auto result = fn();
  WallTimer t;
  *ms = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer rt;
    auto again = fn();
    *ms = std::min(*ms, rt.ElapsedMillis());
    (void)again;
  }
  return result;
}

}  // namespace

int main() {
  const int restore = GetThreadCount();
  const int64_t kRows = 1 << 20;
  std::printf("E11 Morsel-driven parallelism: threads vs speedup\n");
  std::printf("host hardware threads: %d (speedup needs >1 to show)\n\n",
              HardwareThreads());
  std::printf("%-10s %9s | %8s | %8s %8s | %8s %8s | %8s %8s | %s\n", "op",
              "rows", "t=1(ms)", "t=2(ms)", "speedup", "t=4(ms)", "speedup",
              "t=8(ms)", "speedup", "identical");

  benchjson::Recorder json("parallel");
  const std::vector<int> kSweep = {2, 4, 8};

  auto sweep = [&](const char* op, int64_t rows, auto fn, auto same) {
    double base_ms = 0;
    auto baseline = TimeAt(1, fn, &base_ms);
    json.Record(op, rows, base_ms, 1);
    std::printf("%-10s %9lld | %8.1f |", op, static_cast<long long>(rows),
                base_ms);
    bool all_identical = true;
    for (int t : kSweep) {
      double ms = 0;
      auto r = TimeAt(t, fn, &ms);
      json.Record(op, rows, ms, t);
      all_identical = all_identical && same(baseline, r);
      std::printf(" %8.1f %7.2fx |", ms, base_ms / ms);
    }
    std::printf(" %s\n", all_identical ? "yes" : "NO");
    NEXUS_CHECK(all_identical) << op << ": parallel result diverged";
  };

  auto table_same = [](const TablePtr& a, const TablePtr& b) {
    return SameBits(*a, *b);
  };

  {
    TablePtr probe = MakeFactTable(kRows, 2);
    TablePtr build = relational::Rename(MakeFactTable(kRows / 8, 3),
                                        {{"k", "bk"}, {"v", "bv"}})
                         .ValueOrDie();
    JoinOp op;
    op.left_keys = {"k"};
    op.right_keys = {"bk"};
    sweep("join", kRows,
          [&] { return relational::HashJoin(probe, build, op).ValueOrDie(); },
          table_same);
  }
  {
    TablePtr t = MakeFactTable(kRows, 4);
    AggregateOp op;
    op.group_by = {"k"};
    op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
               AggSpec{AggFunc::kCount, nullptr, "n"}};
    sweep("aggregate", kRows,
          [&] { return algebra::LowerAggregate(t, op).ValueOrDie(); },
          table_same);
  }
  {
    Rng rng(9);
    const int64_t n = 384;
    linalg::DenseMatrix a(n, n), b(n, n);
    for (double& v : a.data()) v = rng.NextDouble(-1, 1);
    for (double& v : b.data()) v = rng.NextDouble(-1, 1);
    sweep("matmul", n * n,
          [&] { return linalg::MatMulBlocked(a, b, 64).ValueOrDie(); },
          [](const linalg::DenseMatrix& x, const linalg::DenseMatrix& y) {
            return SameBits(x.data(), y.data());
          });
  }

  SetThreadCount(restore);
  std::printf(
      "\nshape expectation: with >=4 hardware threads the join and aggregate\n"
      "reach >=2.5x at t=4 and matmul scales near-linearly; the 'identical'\n"
      "column must read yes everywhere at any core count — parallel output\n"
      "is byte-identical to sequential by construction.\n");
  return 0;
}
