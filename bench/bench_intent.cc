// E3 — Intent Preservation (desideratum 3): "if the original function is
// matrix multiply, it should be recognizable as such at a server that has a
// direct implementation of matrix multiply."
//
// Method: the client writes matrix multiplication *as a relational
// pipeline* (join + multiply + sum-aggregate), the way an application built
// on a tabular API would. Two arms:
//   recognition OFF  the pipeline runs as written on the relational engine;
//   recognition ON   the optimizer recognizes the pipeline as MatMul and
//                    the planner routes it to the linear-algebra engine.
// Sweep n; also run the intent op written directly. Report wall times and
// the speedup recognition buys.
#include <cstdio>

#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "expr/builder.h"
#include "federation/coordinator.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

TablePtr RandomMatrix(Rng* rng, int64_t rows, int64_t cols, const char* d0,
                      const char* d1, const char* attr) {
  SchemaPtr s = Schema::Make({Field::Dim(d0), Field::Dim(d1),
                              Field::Attr(attr, DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      NEXUS_CHECK(b.AppendRow({Value::Int64(r), Value::Int64(c),
                               Value::Float64(rng->NextDouble(0.1, 1.0))})
                      .ok());
    }
  }
  return b.Finish().ValueOrDie();
}

// Matrix multiply written as a relational pipeline over tagged tables.
PlanPtr HandWrittenMatMul() {
  PlanPtr right = Plan::Rename(Plan::Scan("B"),
                               {{"k", "k2"}, {"j", "j2"}, {"b", "bv"}});
  PlanPtr joined =
      Plan::Join(Plan::Scan("A"), right, JoinType::kInner, {"k"}, {"k2"});
  PlanPtr prod = Plan::Extend(joined, {{"p", Mul(Col("a"), Col("bv"))}});
  PlanPtr agg = Plan::Aggregate(prod, {"i", "j2"},
                                {AggSpec{AggFunc::kSum, Col("p"), "c"}});
  return Plan::Select(agg, Ne(Col("c"), Lit(0)));
}

}  // namespace

int main() {
  std::printf("E3 Intent preservation: matmul written as join+multiply+sum\n");
  std::printf("recognition OFF -> runs as written on relstore;\n");
  std::printf("recognition ON  -> rewritten to MatMul, placed on linalg\n\n");
  std::printf("%6s  %14s  %14s  %9s  %14s\n", "n", "as-written(ms)",
              "recognized(ms)", "speedup", "intent-op(ms)");

  benchjson::Recorder json("intent");
  for (int64_t n : {24, 48, 96, 160}) {
    Cluster cluster;
    NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("linalg", MakeLinalgProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
    Rng rng(static_cast<uint64_t>(n));
    TablePtr a = RandomMatrix(&rng, n, n, "i", "k", "a");
    TablePtr b = RandomMatrix(&rng, n, n, "k", "j", "b");
    // Data lives on the relational server (the client's home system).
    NEXUS_CHECK(cluster.PutData("relstore", "A", Dataset(a)).ok());
    NEXUS_CHECK(cluster.PutData("relstore", "B", Dataset(b)).ok());

    PlanPtr pipeline = HandWrittenMatMul();

    CoordinatorOptions off;
    off.optimizer.recognize_intent = false;
    Coordinator coord_off(&cluster, off);
    ExecutionMetrics m_off, m_on, m_direct;
    WallTimer t1;
    Dataset as_written = coord_off.Execute(pipeline, &m_off).ValueOrDie();
    double ms_off = t1.ElapsedMillis();

    CoordinatorOptions on;
    on.optimizer.recognize_intent = true;
    Coordinator coord_on(&cluster, on);
    WallTimer t2;
    Dataset recognized = coord_on.Execute(pipeline, &m_on).ValueOrDie();
    double ms_on = t2.ElapsedMillis();

    // The intent op written directly, for reference.
    PlanPtr direct = Plan::MatMul(Plan::Scan("A"), Plan::Scan("B"), "c");
    WallTimer t3;
    Dataset intent = coord_on.Execute(direct, &m_direct).ValueOrDie();
    double ms_direct = t3.ElapsedMillis();

    json.Record("as_written", n * n, ms_off);
    json.AnnotateOptimizer(m_off.optimizer);
    json.Record("recognized", n * n, ms_on);
    json.AnnotateOptimizer(m_on.optimizer);
    json.Record("intent_op", n * n, ms_direct);
    json.AnnotateOptimizer(m_direct.optimizer);
    NEXUS_CHECK(as_written.LogicallyEquals(recognized)) << "n=" << n;
    std::printf("%6lld  %14.2f  %14.2f  %8.2fx  %14.2f\n",
                static_cast<long long>(n), ms_off, ms_on, ms_off / ms_on,
                ms_direct);
    (void)intent;
  }
  std::printf("\nshape expectation: the recognized arm wins and the gap widens\n");
  std::printf("with n (hash join + boxed aggregation vs blocked GEMM).\n");
  return 0;
}
