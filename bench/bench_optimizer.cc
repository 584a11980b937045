// E7 — Provider-side optimization (LINQ property): shipping whole
// expression trees "permits optimization and query planning at the
// Provider" — and at the coordinator. This bench ablates the optimizer's
// passes on a filter + join + aggregate pipeline.
//
// Arms: none / +pushdown / +pruning / all (pushdown + pruning + folding).
// Sweep the selection's selectivity; report wall time on the relational
// engine. Pushdown shrinks the join's build/probe inputs, pruning narrows
// the scans.
//
// E14 — Statistics-driven cost-based planning:
//   e14_join3_written / e14_join3_reordered: a skewed 3-way join whose
//     written order builds a ~900k-row intermediate; the DP enumerator
//     joins the selective pair first (~15 rows). Gate: >= 2x wall win,
//     byte-identical results.
//   e14_place_heuristic / e14_place_cost: a selective filter on a large
//     fact on one server joined with a bulky dim on another. The legacy
//     bulkier-input heuristic hosts the join with the fact and ships the
//     whole dim; cost-based placement prices the filtered rows and ships
//     those instead. Gate: bytes_on_wire(cost) <= bytes_on_wire(heuristic).
#include <algorithm>
#include <cstdio>
#include <tuple>

#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "expr/builder.h"
#include "federation/coordinator.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

// E14a: join-order ablation on a skewed 3-way join. All data on one
// relational server so the measurement is pure engine work.
void RunJoinOrderArms(benchjson::Recorder* json) {
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
  Rng rng(7);

  const int64_t kARows = 3000;   // x skewed into 10 values
  const int64_t kBRows = 3000;   // x in 0..9, y uniform in 0..999
  const int64_t kCRows = 5;      // distinct y values

  SchemaPtr sa = Schema::Make({Field::Attr("x", DataType::kInt64),
                               Field::Attr("a_val", DataType::kFloat64)})
                     .ValueOrDie();
  TableBuilder ab(sa);
  for (int64_t i = 0; i < kARows; ++i) {
    NEXUS_CHECK(ab.AppendRow({Value::Int64(rng.NextInt(0, 9)),
                              Value::Float64(rng.NextDouble(0, 1))})
                    .ok());
  }
  NEXUS_CHECK(
      cluster.PutData("relstore", "fact3", Dataset(ab.Finish().ValueOrDie())).ok());

  SchemaPtr sb = Schema::Make({Field::Attr("x", DataType::kInt64),
                               Field::Attr("y", DataType::kInt64)})
                     .ValueOrDie();
  TableBuilder bb(sb);
  for (int64_t i = 0; i < kBRows; ++i) {
    NEXUS_CHECK(bb.AppendRow({Value::Int64(rng.NextInt(0, 9)),
                              Value::Int64(rng.NextInt(0, 999))})
                    .ok());
  }
  NEXUS_CHECK(
      cluster.PutData("relstore", "bridge3", Dataset(bb.Finish().ValueOrDie())).ok());

  SchemaPtr sc = Schema::Make({Field::Attr("y", DataType::kInt64),
                               Field::Attr("label", DataType::kString)})
                     .ValueOrDie();
  TableBuilder cb(sc);
  for (int64_t i = 0; i < kCRows; ++i) {
    NEXUS_CHECK(
        cb.AppendRow({Value::Int64(i), Value::String(rng.NextString(8))}).ok());
  }
  NEXUS_CHECK(
      cluster.PutData("relstore", "tiny3", Dataset(cb.Finish().ValueOrDie())).ok());

  // Written order: the skewed pair first (|A ⋈ B| ≈ 3000·3000/10 = 900k),
  // then the selective probe. The good order joins bridge3 ⋈ tiny3 first
  // (≈ 15 rows).
  PlanPtr p = Plan::Join(Plan::Scan("fact3"), Plan::Scan("bridge3"),
                         JoinType::kInner, {"x"}, {"x"});
  p = Plan::Join(p, Plan::Scan("tiny3"), JoinType::kInner, {"y"}, {"y"});

  auto run = [&](bool reorder) {
    CoordinatorOptions opts;
    opts.optimizer.reorder_joins = reorder;
    opts.optimizer.recognize_intent = false;
    Coordinator coord(&cluster, opts);
    NEXUS_CHECK(coord.Execute(p).ok());  // warm-up
    double ms = 1e30;
    Dataset r;
    ExecutionMetrics m;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer t;
      r = coord.Execute(p, &m).ValueOrDie();
      ms = std::min(ms, t.ElapsedMillis());
    }
    return std::make_tuple(ms, r, m.optimizer);
  };
  auto [ms_written, r_written, opt_written] = run(false);
  auto [ms_reordered, r_reordered, opt_reordered] = run(true);
  NEXUS_CHECK(r_written.LogicallyEquals(r_reordered))
      << "join reorder changed the result";
  NEXUS_CHECK(opt_reordered.joins_reordered >= 1)
      << "DP enumerator left the skewed order in place";

  json->Record("e14_join3_written", r_written.num_rows(), ms_written);
  json->AnnotateOptimizer(opt_written);
  json->Record("e14_join3_reordered", r_reordered.num_rows(), ms_reordered);
  json->AnnotateOptimizer(opt_reordered);
  std::printf("E14 join order: written %.1fms  reordered %.1fms  (%.1fx, %lld rows)\n",
              ms_written, ms_reordered, ms_written / ms_reordered,
              static_cast<long long>(r_reordered.num_rows()));

  // Feedback visibility: a traced run must report estimated next to actual
  // rows per fragment (the q-error EXPLAIN ANALYZE line).
  {
    CoordinatorOptions opts;
    opts.optimizer.recognize_intent = false;
    Coordinator coord(&cluster, opts);
    std::string report = coord.ExplainAnalyze(p).ValueOrDie();
    NEXUS_CHECK(report.find("q-err") != std::string::npos)
        << "EXPLAIN ANALYZE lost the q-error report:\n" << report;
  }
}

// E14b: placement ablation. A tiny filtered slice of a large fact lives on
// rel_a, a bulky dimension on rel_b; the join can run on either server.
void RunPlacementArms(benchjson::Recorder* json) {
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("rel_a", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("rel_b", MakeRelationalProvider()).ok());
  Rng rng(11);

  const int64_t kFactRows = 200000;
  const int64_t kDimRows = 20000;

  SchemaPtr fact = Schema::Make({Field::Attr("k", DataType::kInt64),
                                 Field::Attr("g", DataType::kInt64),
                                 Field::Attr("v", DataType::kFloat64)})
                       .ValueOrDie();
  TableBuilder fb(fact);
  for (int64_t i = 0; i < kFactRows; ++i) {
    NEXUS_CHECK(fb.AppendRow({Value::Int64(rng.NextInt(0, 9999)),
                              Value::Int64(rng.NextInt(0, kDimRows - 1)),
                              Value::Float64(rng.NextDouble(0, 1))})
                    .ok());
  }
  NEXUS_CHECK(
      cluster.PutData("rel_a", "fact14", Dataset(fb.Finish().ValueOrDie())).ok());

  SchemaPtr dim = Schema::Make({Field::Attr("did", DataType::kInt64),
                                Field::Attr("pad", DataType::kString)})
                      .ValueOrDie();
  TableBuilder db(dim);
  for (int64_t i = 0; i < kDimRows; ++i) {
    NEXUS_CHECK(
        db.AppendRow({Value::Int64(i), Value::String(rng.NextString(32))}).ok());
  }
  NEXUS_CHECK(
      cluster.PutData("rel_b", "dim14", Dataset(db.Finish().ValueOrDie())).ok());

  // k == 77 keeps ~1/10000 of the fact. The legacy heuristic prices the
  // filtered side at half the fact (bulkier than the dim) and hosts the
  // join on rel_a, shipping the whole dim; statistics price it at ~20 rows.
  PlanPtr p = Plan::Select(Plan::Scan("fact14"), Eq(Col("k"), Lit(int64_t{77})));
  p = Plan::Join(p, Plan::Scan("dim14"), JoinType::kInner, {"g"}, {"did"});

  auto run = [&](bool cost_based) {
    CoordinatorOptions opts;
    opts.cost_based_placement = cost_based;
    opts.optimizer.recognize_intent = false;
    Coordinator coord(&cluster, opts);
    ExecutionMetrics m;
    WallTimer t;
    Dataset r = coord.Execute(p, &m).ValueOrDie();
    double ms = t.ElapsedMillis();
    return std::make_tuple(ms, r, m, m.optimizer);
  };
  auto [ms_h, r_h, m_h, opt_h] = run(false);
  auto [ms_c, r_c, m_c, opt_c] = run(true);
  NEXUS_CHECK(r_h.LogicallyEquals(r_c)) << "placement changed the result";
  const int64_t bytes_h = m_h.profile[QueryStat::kBytes];
  const int64_t bytes_c = m_c.profile[QueryStat::kBytes];
  NEXUS_CHECK(bytes_c <= bytes_h)
      << "cost-based placement shipped more than the heuristic: " << bytes_c
      << " vs " << bytes_h;

  json->RecordWire("e14_place_heuristic", r_h.num_rows(), ms_h, m_h.profile);
  json->AnnotateOptimizer(opt_h);
  json->RecordWire("e14_place_cost", r_c.num_rows(), ms_c, m_c.profile);
  json->AnnotateOptimizer(opt_c);
  std::printf(
      "E14 placement: heuristic %lld bytes on wire, cost-based %lld (%.1fx less)\n",
      static_cast<long long>(bytes_h), static_cast<long long>(bytes_c),
      bytes_c > 0 ? static_cast<double>(bytes_h) / bytes_c : 0.0);
}

}  // namespace

int main() {
  const int64_t kFactRows = 150000;
  const int64_t kDimRows = 2000;

  std::printf("E7 Optimizer ablation: select-above-join pipeline, %lld x %lld rows\n\n",
              static_cast<long long>(kFactRows), static_cast<long long>(kDimRows));
  std::printf("%11s  %9s  %11s  %11s  %9s  %9s\n", "selectivity", "none(ms)",
              "+pushdown", "+pruning", "all(ms)", "speedup");

  benchjson::Recorder json("optimizer");
  for (double selectivity : {0.5, 0.1, 0.01, 0.001}) {
    Cluster cluster;
    NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
    Rng rng(42);
    SchemaPtr fact = Schema::Make({Field::Attr("id", DataType::kInt64),
                                   Field::Attr("dim_id", DataType::kInt64),
                                   Field::Attr("v", DataType::kFloat64),
                                   Field::Attr("pad1", DataType::kFloat64),
                                   Field::Attr("pad2", DataType::kString)})
                        .ValueOrDie();
    TableBuilder fb(fact);
    for (int64_t i = 0; i < kFactRows; ++i) {
      NEXUS_CHECK(fb.AppendRow({Value::Int64(i),
                                Value::Int64(rng.NextInt(0, kDimRows - 1)),
                                Value::Float64(rng.NextDouble(0, 1)),
                                Value::Float64(rng.NextDouble(0, 1)),
                                Value::String(rng.NextString(12))})
                      .ok());
    }
    NEXUS_CHECK(
        cluster.PutData("relstore", "fact", Dataset(fb.Finish().ValueOrDie())).ok());
    SchemaPtr dim = Schema::Make({Field::Attr("did", DataType::kInt64),
                                  Field::Attr("label", DataType::kString)})
                        .ValueOrDie();
    TableBuilder db(dim);
    for (int64_t i = 0; i < kDimRows; ++i) {
      NEXUS_CHECK(db.AppendRow({Value::Int64(i), Value::String(rng.NextString(8))})
                      .ok());
    }
    NEXUS_CHECK(
        cluster.PutData("relstore", "dim", Dataset(db.Finish().ValueOrDie())).ok());

    // Selection written *above* the join, as clients naturally do.
    PlanPtr p = Plan::Join(Plan::Scan("fact"), Plan::Scan("dim"),
                           JoinType::kInner, {"dim_id"}, {"did"});
    p = Plan::Select(p, Lt(Col("v"), Lit(selectivity)));
    p = Plan::Aggregate(p, {"label"}, {AggSpec{AggFunc::kSum, Col("v"), "sv"},
                                       AggSpec{AggFunc::kCount, nullptr, "n"}});

    auto run = [&](bool push, bool prune, bool fold) {
      CoordinatorOptions opts;
      opts.optimizer.push_selections = push;
      opts.optimizer.prune_columns = prune;
      opts.optimizer.fold_constants = fold;
      opts.optimizer.recognize_intent = false;
      Coordinator coord(&cluster, opts);
      // Warm-up, then best-of-3 timed runs (single-core box: take the
      // minimum to shed scheduler noise).
      NEXUS_CHECK(coord.Execute(p).ok());
      double ms = 1e30;
      Dataset r;
      ExecutionMetrics m;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer t;
        r = coord.Execute(p, &m).ValueOrDie();
        ms = std::min(ms, t.ElapsedMillis());
      }
      return std::make_tuple(ms, r, m.optimizer);
    };
    auto [ms_none, r_none, opt_none] = run(false, false, false);
    auto [ms_push, r_push, opt_push] = run(true, false, false);
    auto [ms_prune, r_prune, opt_prune] = run(false, true, false);
    auto [ms_all, r_all, opt_all] = run(true, true, true);
    NEXUS_CHECK(r_none.LogicallyEquals(r_all));
    NEXUS_CHECK(r_push.LogicallyEquals(r_all));
    NEXUS_CHECK(r_prune.LogicallyEquals(r_all));
    char sel[24];
    std::snprintf(sel, sizeof(sel), "sel_%.3f", selectivity);
    json.Record(std::string(sel) + "_none", kFactRows, ms_none);
    json.AnnotateOptimizer(opt_none);
    json.Record(std::string(sel) + "_pushdown", kFactRows, ms_push);
    json.AnnotateOptimizer(opt_push);
    json.Record(std::string(sel) + "_pruning", kFactRows, ms_prune);
    json.AnnotateOptimizer(opt_prune);
    json.Record(std::string(sel) + "_all", kFactRows, ms_all);
    json.AnnotateOptimizer(opt_all);

    std::printf("%11.3f  %9.1f  %11.1f  %11.1f  %9.1f  %8.2fx\n", selectivity,
                ms_none, ms_push, ms_prune, ms_all, ms_none / ms_all);
  }
  std::printf("\nshape expectation: pushdown wins grow as selectivity tightens\n");
  std::printf("(the join sees only surviving rows); pruning gives a roughly\n");
  std::printf("constant factor by dropping the padding columns early.\n\n");

  RunJoinOrderArms(&json);
  RunPlacementArms(&json);
  return 0;
}
