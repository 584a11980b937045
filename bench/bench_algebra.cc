// E17 — Semi-ring kernel subsystem ("one algebra under all four engines"):
// the same ⊕/⊗ programs run on the algebra's kernels and, as a reference,
// on the native loops they replaced (frozen in this file), byte-identically
// and — the CI gate — within 1.25x of the native time.
//
// Arms:
//   e17_spmv_native / e17_spmv_algebra: y = A·x by the frozen CSR loop vs
//     SparseMatrixCSR::SpMV (the plus_times MxV kernel). Gate: bitwise-equal
//     y — recorded as e17_spmv_identical (rows=1).
//   e17_spgemm_native / e17_spgemm_algebra: C = A·B, frozen Gustavson vs
//     SpGEMM (the ring-aware MxM kernel); bitwise-equal triplets.
//   e17_pagerank_native / e17_pagerank_algebra: 20 PageRank iterations over
//     65,536 nodes, frozen scatter loop vs graph::PageRank (the plus_times
//     VxMPush kernel); bitwise-equal ranks.
//   e17_bfs_native / e17_bfs_algebra: BFS over 65,536 nodes, frozen queue
//     loop vs graph::Bfs (the min_plus MaskedVxM kernel); equal levels.
//   e17_agg_<engine>: one SUM/MIN/MAX/COUNT/AVG aggregate-as-Union⊕ plan
//     executed by every provider — reference, relstore, arraydb, linalg,
//     graphd. Gate: all byte-identical to reference — recorded as
//     e17_agg_engines_identical (rows = agreeing engines).
//   e17_agg_threads_identical: the grouped fold (LowerAggregate) at 1 and
//     at 4 threads on the same input, byte-identical (rows=1).
//   e17_ops_lowered: a coordinator run; the lower_semiring pass must count
//     the aggregate (ExecutionMetrics::optimizer.ops_lowered > 0) and
//     ExplainAnalyze must carry the "algebra:" summary line.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/kernels.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "graph/graph.h"
#include "linalg/sparse.h"
#include "provider/provider.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

constexpr int64_t kAggRows = 1'000'000;
constexpr int64_t kGraphNodes = 1 << 16;

double MinMillis(const std::function<void()>& fn, int reps = 3) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.ElapsedMillis());
  }
  return best;
}

// Best-of-7 per-call times of the native and algebra arms, sampled
// alternately so machine drift hits both alike; each sample batches enough
// calls to span about 20 ms, so sub-millisecond kernels time stably too.
std::pair<double, double> PerCallMillis(const std::function<void()>& native,
                                        const std::function<void()>& algebra) {
  WallTimer probe;
  native();
  const int batch =
      std::max(1, static_cast<int>(20.0 / std::max(probe.ElapsedMillis(), 1e-3)));
  double best[2] = {1e30, 1e30};
  for (int s = 0; s < 14; ++s) {
    const std::function<void()>& fn = s % 2 == 0 ? native : algebra;
    WallTimer t;
    for (int b = 0; b < batch; ++b) fn();
    best[s % 2] = std::min(best[s % 2], t.ElapsedMillis() / batch);
  }
  return {best[0], best[1]};
}

// --- The native loops the algebra kernels replaced, frozen as the
// --- reference arm.

std::vector<double> NativeSpMV(const linalg::SparseMatrixCSR& m,
                               const std::vector<double>& x) {
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const auto& vals = m.values();
  std::vector<double> y(static_cast<size_t>(m.rows()), 0.0);
  for (int64_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (int64_t i = rp[static_cast<size_t>(r)]; i < rp[static_cast<size_t>(r) + 1];
         ++i) {
      s += vals[static_cast<size_t>(i)] *
           x[static_cast<size_t>(ci[static_cast<size_t>(i)])];
    }
    y[static_cast<size_t>(r)] = s;
  }
  return y;
}

linalg::SparseMatrixCSR NativeSpGEMM(const linalg::SparseMatrixCSR& a,
                                     const linalg::SparseMatrixCSR& b) {
  std::vector<double> workspace(static_cast<size_t>(b.cols()), 0.0);
  std::vector<int64_t> touched;
  std::vector<linalg::Triplet> out;
  for (int64_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (int64_t i = a.row_ptr()[static_cast<size_t>(r)];
         i < a.row_ptr()[static_cast<size_t>(r) + 1]; ++i) {
      int64_t k = a.col_idx()[static_cast<size_t>(i)];
      double av = a.values()[static_cast<size_t>(i)];
      for (int64_t j = b.row_ptr()[static_cast<size_t>(k)];
           j < b.row_ptr()[static_cast<size_t>(k) + 1]; ++j) {
        int64_t c = b.col_idx()[static_cast<size_t>(j)];
        if (workspace[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
        workspace[static_cast<size_t>(c)] += av * b.values()[static_cast<size_t>(j)];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int64_t c : touched) {
      double v = workspace[static_cast<size_t>(c)];
      workspace[static_cast<size_t>(c)] = 0.0;
      if (v != 0.0) out.push_back(linalg::Triplet{r, c, v});
    }
  }
  return linalg::SparseMatrixCSR::FromTriplets(a.rows(), b.cols(), std::move(out))
      .ValueOrDie();
}

std::vector<double> NativePageRank(const graph::CsrGraph& g,
                                   const graph::PageRankOptions& opts) {
  int64_t n = g.num_nodes();
  std::vector<double> rank(static_cast<size_t>(n), 1.0 / static_cast<double>(n));
  std::vector<double> next(static_cast<size_t>(n));
  for (int64_t iter = 0; iter < opts.max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      if (g.out_degree(u) == 0) dangling += rank[static_cast<size_t>(u)];
    }
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (int64_t u = 0; u < n; ++u) {
      int64_t deg = g.out_degree(u);
      if (deg == 0) continue;
      double share =
          opts.damping * rank[static_cast<size_t>(u)] / static_cast<double>(deg);
      for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
        next[static_cast<size_t>(*v)] += share;
      }
    }
    double delta = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      delta += std::fabs(next[static_cast<size_t>(u)] - rank[static_cast<size_t>(u)]);
    }
    rank.swap(next);
    if (delta < opts.epsilon) break;
  }
  return rank;
}

std::vector<int64_t> NativeBfs(const graph::CsrGraph& g, int64_t source) {
  std::vector<int64_t> level(static_cast<size_t>(g.num_nodes()), -1);
  std::queue<int64_t> frontier;
  level[static_cast<size_t>(source)] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    int64_t u = frontier.front();
    frontier.pop();
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      if (level[static_cast<size_t>(*v)] < 0) {
        level[static_cast<size_t>(*v)] = level[static_cast<size_t>(u)] + 1;
        frontier.push(*v);
      }
    }
  }
  return level;
}

std::vector<linalg::Triplet> RandomTriplets(int64_t rows, int64_t cols,
                                            int64_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::Triplet> out;
  out.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    out.push_back(linalg::Triplet{rng.NextInt(0, rows - 1),
                                  rng.NextInt(0, cols - 1),
                                  rng.NextDouble(-1, 1)});
  }
  return out;
}

graph::CsrGraph RandomGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> src(static_cast<size_t>(edges)),
      dst(static_cast<size_t>(edges));
  for (int64_t e = 0; e < edges; ++e) {
    src[static_cast<size_t>(e)] = rng.NextInt(0, nodes - 1);
    dst[static_cast<size_t>(e)] = rng.NextInt(0, nodes - 1);
  }
  return graph::CsrGraph::FromEdges(src, dst);
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
         });
}

void Report(benchjson::Recorder* json, const char* arm, const std::string& what,
            long long rows, double ms_native, double ms_algebra) {
  json->Record(std::string("e17_") + arm + "_native", rows, ms_native);
  json->Record(std::string("e17_") + arm + "_algebra", rows, ms_algebra);
  std::printf("%s\n", what.c_str());
  std::printf("  native loop       %9.3f ms\n", ms_native);
  std::printf("  algebra kernel    %9.3f ms   (%.2fx native, bitwise identical)\n",
              ms_algebra, ms_algebra / ms_native);
}

void RunSparseArms(benchjson::Recorder* json) {
  const int64_t n = 2000;
  linalg::SparseMatrixCSR a =
      linalg::SparseMatrixCSR::FromTriplets(n, n, RandomTriplets(n, n, 40000, 7))
          .ValueOrDie();
  Rng rng(11);
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) v = rng.NextDouble(-1, 1);
  NEXUS_CHECK(BitEqual(NativeSpMV(a, x), a.SpMV(x).ValueOrDie()));
  auto [ms_native, ms_algebra] = PerCallMillis(
      [&] { NativeSpMV(a, x); }, [&] { a.SpMV(x).ValueOrDie(); });
  json->Record("e17_spmv_identical", 1, 0.0);
  Report(json, "spmv", "SpMV 2000x2000 (nnz=" + std::to_string(a.nnz()) + ")",
         n, ms_native, ms_algebra);

  const int64_t m = 300;
  linalg::SparseMatrixCSR ga =
      linalg::SparseMatrixCSR::FromTriplets(m, m, RandomTriplets(m, m, 6000, 5))
          .ValueOrDie();
  linalg::SparseMatrixCSR gb =
      linalg::SparseMatrixCSR::FromTriplets(m, m, RandomTriplets(m, m, 6000, 9))
          .ValueOrDie();
  std::vector<linalg::Triplet> tn = NativeSpGEMM(ga, gb).ToTriplets();
  std::vector<linalg::Triplet> ta = ga.SpGEMM(gb).ValueOrDie().ToTriplets();
  NEXUS_CHECK(tn.size() == ta.size());
  for (size_t i = 0; i < tn.size(); ++i) {
    NEXUS_CHECK(tn[i].row == ta[i].row && tn[i].col == ta[i].col &&
                std::bit_cast<uint64_t>(tn[i].value) ==
                    std::bit_cast<uint64_t>(ta[i].value));
  }
  std::tie(ms_native, ms_algebra) = PerCallMillis(
      [&] { NativeSpGEMM(ga, gb); }, [&] { ga.SpGEMM(gb).ValueOrDie(); });
  Report(json, "spgemm",
         "SpGEMM 300x300 (nnz=" + std::to_string(ga.nnz()) + ", " +
             std::to_string(gb.nnz()) + ")",
         m, ms_native, ms_algebra);
}

void RunGraphArms(benchjson::Recorder* json) {
  graph::CsrGraph g = RandomGraph(kGraphNodes, kGraphNodes * 8, 11);
  graph::PageRankOptions opts;
  opts.max_iters = 20;
  opts.epsilon = 0;  // fixed work per run
  NEXUS_CHECK(BitEqual(NativePageRank(g, opts), graph::PageRank(g, opts).rank));
  auto [ms_native, ms_algebra] = PerCallMillis(
      [&] { NativePageRank(g, opts); }, [&] { graph::PageRank(g, opts); });
  Report(json, "pagerank",
         "PageRank " + std::to_string(g.num_nodes()) + " nodes, " +
             std::to_string(g.num_edges()) + " edges, 20 iterations",
         kGraphNodes, ms_native, ms_algebra);

  graph::CsrGraph h = RandomGraph(kGraphNodes, kGraphNodes * 8, 12);
  NEXUS_CHECK(NativeBfs(h, 0) == graph::Bfs(h, 0));
  std::tie(ms_native, ms_algebra) = PerCallMillis(
      [&] { NativeBfs(h, 0); }, [&] { graph::Bfs(h, 0); });
  Report(json, "bfs",
         "BFS " + std::to_string(h.num_nodes()) + " nodes, " +
             std::to_string(h.num_edges()) + " edges",
         kGraphNodes, ms_native, ms_algebra);
}

TablePtr Fact17() {
  SchemaPtr s = Schema::Make({Field::Attr("g", DataType::kInt64),
                              Field::Attr("v", DataType::kFloat64),
                              Field::Attr("c", DataType::kInt64)})
                    .ValueOrDie();
  Rng rng(23);
  TableBuilder b(s);
  // Integer-valued doubles keep the grouped sums exact, so every engine's
  // fold can be compared byte-for-byte.
  for (int64_t i = 0; i < kAggRows; ++i) {
    NEXUS_CHECK(
        b.AppendRow({Value::Int64(rng.NextInt(0, 63)),
                     Value::Float64(static_cast<double>(rng.NextInt(-50, 50))),
                     Value::Int64(rng.NextInt(-10, 10))})
            .ok());
  }
  return b.Finish().ValueOrDie();
}

PlanPtr AggPlan() {
  return Plan::Aggregate(Plan::Scan("fact17"), {"g"},
                         {AggSpec{AggFunc::kSum, Col("v"), "sv"},
                          AggSpec{AggFunc::kSum, Col("c"), "sc"},
                          AggSpec{AggFunc::kMin, Col("v"), "lo"},
                          AggSpec{AggFunc::kMax, Col("c"), "hi"},
                          AggSpec{AggFunc::kCount, nullptr, "n"},
                          AggSpec{AggFunc::kAvg, Col("v"), "mean"}});
}

void RunEngineArms(benchjson::Recorder* json) {
  TablePtr fact = Fact17();
  PlanPtr plan = AggPlan();
  struct Engine {
    const char* name;
    ProviderPtr provider;
  };
  std::vector<Engine> engines = {{"reference", MakeReferenceProvider()},
                                 {"relstore", MakeRelationalProvider()},
                                 {"arraydb", MakeArrayProvider()},
                                 {"linalg", MakeLinalgProvider()},
                                 {"graphd", MakeGraphProvider()}};
  for (Engine& e : engines) {
    NEXUS_CHECK(e.provider->catalog()->Put("fact17", Dataset(fact)).ok());
  }

  std::printf("\nSUM/MIN/MAX/COUNT/AVG aggregate over %lld rows\n",
              static_cast<long long>(kAggRows));
  TablePtr baseline;
  int identical = 0;
  for (Engine& e : engines) {
    NEXUS_CHECK(e.provider->ClaimsTree(*plan));
    Dataset out = e.provider->Execute(*plan).ValueOrDie();
    double ms = MinMillis([&] { e.provider->Execute(*plan).ValueOrDie(); });
    TablePtr t = out.table();
    NEXUS_CHECK(t != nullptr);
    if (baseline == nullptr) {
      baseline = t;
    } else {
      NEXUS_CHECK(t->Equals(*baseline));
      ++identical;
    }
    json->Record(std::string("e17_agg_") + e.name,
                 static_cast<long long>(t->num_rows()), ms);
    std::printf("  %-10s %9.2f ms\n", e.name, ms);
  }
  json->Record("e17_agg_engines_identical", identical, 0.0);
  std::printf("  all %d engines byte-identical to reference\n", identical);

  // The one grouped fold at 1 and at 4 threads: the partition-by-hash
  // path must not change a single byte.
  const int saved_threads = GetThreadCount();
  SetThreadCount(1);
  TablePtr one = algebra::LowerAggregate(fact, plan->As<AggregateOp>()).ValueOrDie();
  SetThreadCount(4);
  TablePtr four = algebra::LowerAggregate(fact, plan->As<AggregateOp>()).ValueOrDie();
  SetThreadCount(saved_threads);
  NEXUS_CHECK(one->Equals(*four));
  NEXUS_CHECK(one->Equals(*baseline));
  json->Record("e17_agg_threads_identical", 1, 0.0);
  std::printf("  LowerAggregate at 1 vs 4 threads: byte-identical\n");

  // Planner visibility: the lower_semiring pass counts the aggregate and
  // ExplainAnalyze carries the algebra summary line.
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
  NEXUS_CHECK(cluster.PutData("relstore", "fact17", Dataset(fact)).ok());
  Coordinator coord(&cluster);
  ExecutionMetrics m;
  Dataset via_coord = coord.Execute(plan, &m).ValueOrDie();
  NEXUS_CHECK(via_coord.table()->Equals(*baseline));
  const OptimizerStats& stats = m.optimizer;
  NEXUS_CHECK(stats.ops_lowered > 0);
  std::string explain = coord.ExplainAnalyze(plan).ValueOrDie();
  NEXUS_CHECK(explain.find("algebra:") != std::string::npos);
  json->Record("e17_ops_lowered", stats.ops_lowered, 0.0);
  json->AnnotateOptimizer(stats);
  std::printf("  optimizer ops_lowered=%lld; ExplainAnalyze has algebra line\n",
              static_cast<long long>(stats.ops_lowered));
}

}  // namespace

int main() {
  benchjson::Recorder json("algebra");
  std::printf("E17: one semi-ring algebra under all four engines\n");
  std::printf("threads=%d\n\n", GetThreadCount());
  RunSparseArms(&json);
  RunGraphArms(&json);
  RunEngineArms(&json);
  std::printf("\nall byte-identity checks passed\n");
  return 0;
}
