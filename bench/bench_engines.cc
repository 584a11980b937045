// E8 — Engine baselines: microbenchmarks of the four substrate engines
// (google-benchmark). These underpin every other experiment: the relational
// engine's vectorized filter/join/aggregate, the array engine's chunked
// regrid/window and slice pruning, the linear-algebra kernels (naive vs
// blocked GEMM ablation, SpGEMM), and the graph kernels.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "algebra/kernels.h"
#include "arraydb/engine.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "expr/builder.h"
#include "graph/graph.h"
#include "linalg/dense.h"
#include "linalg/sparse.h"
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

NDArrayPtr MakeGrid(int64_t n, int64_t chunk, uint64_t seed) {
  Rng rng(seed);
  auto arr = NDArray::Make({DimensionSpec{"i", 0, n, chunk},
                            DimensionSpec{"j", 0, n, chunk}},
                           Schema::Make({Field::Attr("v", DataType::kFloat64)})
                               .ValueOrDie())
                 .ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      NEXUS_CHECK(arr->Set({i, j}, {Value::Float64(rng.NextDouble(0, 1))}).ok());
    }
  }
  return arr;
}

// --- relational engine ---

void BM_RelationalFilter(benchmark::State& state) {
  TablePtr t = MakeFactTable(state.range(0), 1);
  ExprPtr pred = Gt(Col("v"), Lit(50.0));
  for (auto _ : state) {
    auto r = relational::Filter(t, *pred);
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationalFilter)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_RelationalHashJoin(benchmark::State& state) {
  TablePtr probe = MakeFactTable(state.range(0), 2);
  TablePtr build = relational::Rename(MakeFactTable(state.range(0) / 8, 3),
                                      {{"k", "bk"}, {"v", "bv"}})
                       .ValueOrDie();
  JoinOp op;
  op.left_keys = {"k"};
  op.right_keys = {"bk"};
  for (auto _ : state) {
    auto r = relational::HashJoin(probe, build, op);
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationalHashJoin)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

void BM_LowerAggregate(benchmark::State& state) {
  TablePtr t = MakeFactTable(state.range(0), 4);
  AggregateOp op;
  op.group_by = {"k"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kCount, nullptr, "n"}};
  for (auto _ : state) {
    auto r = algebra::LowerAggregate(t, op);
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LowerAggregate)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_RelationalSort(benchmark::State& state) {
  TablePtr t = MakeFactTable(state.range(0), 5);
  for (auto _ : state) {
    auto r = relational::Sort(t, {{"v", true}});
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationalSort)->Arg(1 << 14)->Arg(1 << 17);

// --- array engine ---

void BM_ArrayRegrid(benchmark::State& state) {
  NDArrayPtr arr = MakeGrid(state.range(0), 32, 6);
  for (auto _ : state) {
    auto r = arraydb::Regrid(*arr, {{"i", 4}, {"j", 4}}, AggFunc::kAvg);
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_ArrayRegrid)->Arg(64)->Arg(128)->Arg(256);

void BM_ArrayWindow(benchmark::State& state) {
  NDArrayPtr arr = MakeGrid(state.range(0), 32, 7);
  for (auto _ : state) {
    auto r = arraydb::Window(*arr, {{"i", 1}, {"j", 1}}, AggFunc::kAvg);
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_ArrayWindow)->Arg(32)->Arg(64)->Arg(128);

// Chunk pruning ablation: a small slice of a large array — the chunk-native
// engine visits only overlapping chunks; cost should track the slice, not
// the array.
void BM_ArraySlicePruning(benchmark::State& state) {
  NDArrayPtr arr = MakeGrid(256, static_cast<int64_t>(state.range(0)), 8);
  for (auto _ : state) {
    auto r = arraydb::Slice(*arr, {{"i", 0, 16}, {"j", 0, 16}});
    NEXUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.SetLabel("chunk=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ArraySlicePruning)->Arg(8)->Arg(32)->Arg(128);

// --- linear algebra ---

void BM_GemmNaive(benchmark::State& state) {
  Rng rng(9);
  int64_t n = state.range(0);
  linalg::DenseMatrix a(n, n), b(n, n);
  for (double& v : a.data()) v = rng.NextDouble(-1, 1);
  for (double& v : b.data()) v = rng.NextDouble(-1, 1);
  for (auto _ : state) {
    auto c = linalg::MatMulNaive(a, b);
    NEXUS_CHECK(c.ok());
    benchmark::DoNotOptimize(c.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBlocked(benchmark::State& state) {
  Rng rng(9);
  int64_t n = state.range(0);
  linalg::DenseMatrix a(n, n), b(n, n);
  for (double& v : a.data()) v = rng.NextDouble(-1, 1);
  for (double& v : b.data()) v = rng.NextDouble(-1, 1);
  for (auto _ : state) {
    auto c = linalg::MatMulBlocked(a, b, state.range(1));
    NEXUS_CHECK(c.ok());
    benchmark::DoNotOptimize(c.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmBlocked)
    ->Args({256, 16})
    ->Args({256, 64})
    ->Args({256, 128})
    ->Args({512, 64});

void BM_SpGemm(benchmark::State& state) {
  Rng rng(10);
  int64_t n = state.range(0);
  double density = 0.02;
  std::vector<linalg::Triplet> ta, tb;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      if (rng.NextBool(density)) ta.push_back({r, c, rng.NextDouble(-1, 1)});
      if (rng.NextBool(density)) tb.push_back({r, c, rng.NextDouble(-1, 1)});
    }
  }
  auto a = linalg::SparseMatrixCSR::FromTriplets(n, n, ta).ValueOrDie();
  auto b = linalg::SparseMatrixCSR::FromTriplets(n, n, tb).ValueOrDie();
  for (auto _ : state) {
    auto c = a.SpGEMM(b);
    NEXUS_CHECK(c.ok());
    benchmark::DoNotOptimize(c.ValueOrDie());
  }
  state.SetLabel("nnz=" + std::to_string(a.nnz()));
}
BENCHMARK(BM_SpGemm)->Arg(256)->Arg(512)->Arg(1024);

// --- graph engine ---

graph::CsrGraph MakeRandomGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> src(static_cast<size_t>(edges)),
      dst(static_cast<size_t>(edges));
  for (int64_t e = 0; e < edges; ++e) {
    src[static_cast<size_t>(e)] = rng.NextInt(0, nodes - 1);
    dst[static_cast<size_t>(e)] = rng.NextInt(0, nodes - 1);
  }
  return graph::CsrGraph::FromEdges(src, dst);
}

void BM_PageRankCsr(benchmark::State& state) {
  graph::CsrGraph g = MakeRandomGraph(state.range(0), state.range(0) * 8, 11);
  graph::PageRankOptions opts;
  opts.max_iters = 20;
  opts.epsilon = 0;  // fixed work per run
  for (auto _ : state) {
    auto r = graph::PageRank(g, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * opts.max_iters);
}
BENCHMARK(BM_PageRankCsr)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_Bfs(benchmark::State& state) {
  graph::CsrGraph g = MakeRandomGraph(state.range(0), state.range(0) * 8, 12);
  for (auto _ : state) {
    auto levels = graph::Bfs(g, 0);
    benchmark::DoNotOptimize(levels);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Bfs)->Arg(1 << 12)->Arg(1 << 16);

void BM_Triangles(benchmark::State& state) {
  graph::CsrGraph g = MakeRandomGraph(state.range(0), state.range(0) * 6, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CountTriangles(g));
  }
}
BENCHMARK(BM_Triangles)->Arg(1 << 9)->Arg(1 << 12);

// Console output stays the library's; every per-iteration run is also tapped
// into BENCH_engines.json. rows is the benchmark's first /arg when present.
class JsonTapReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTapReporter(benchjson::Recorder* json) : json_(json) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.benchmark_name();
      long long rows = 0;
      size_t slash = name.find('/');
      if (slash != std::string::npos) rows = std::atoll(name.c_str() + slash + 1);
      double ms = run.iterations > 0
                      ? run.real_accumulated_time /
                            static_cast<double>(run.iterations) * 1e3
                      : 0.0;
      json_->Record(name, rows, ms);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  benchjson::Recorder* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchjson::Recorder json("engines");
  JsonTapReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
