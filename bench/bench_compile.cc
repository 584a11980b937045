// E16 — Compiled expression bytecode + fused pipelines ("as fast as the
// hardware allows"): the interpreter walks a boxed Value tree per row; the
// bytecode VM runs a register program over whole morsels.
//
// Arms:
//   e16_expr_interp / e16_expr_compiled: one expression-heavy scan (nulls,
//     conditionals, math builtins) evaluated by the boxed row interpreter
//     (EvalExprInterpreted) vs the compiled VM (EvalExprVector). Gate: >= 5x,
//     and byte-identical output columns.
//   e16_pipe_interp / e16_pipe_compiled / e16_pipe_fused: a
//     filter→extend→aggregate pipeline run by the boxed ReferenceExecutor,
//     by the per-operator kernels called directly (relational::Filter →
//     relational::Extend → algebra::LowerAggregate, each compiled but
//     materializing a table per operator), and through the relational
//     provider, which fuses the chain into one compiled morsel loop.
//     Gate: byte-identical tables across all three arms.
//   e16_cache_cold / e16_cache_warm: the same plan executed twice; the warm
//     run must compile zero programs and hit the program cache.
//   e16_pred_interp / e16_pred_compiled: a three-conjunct range predicate
//     over random rows, selected from the boxed interpreter's mask vs
//     EvalPredicate on the VM (branch-free compares and selection). Gate:
//     identical selection vectors.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "algebra/kernels.h"
#include "bench_json.h"
#include "same_bits.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "expr/bytecode.h"
#include "expr/eval.h"
#include "provider/provider.h"
#include "relational/engine.h"
#include "telemetry/metrics.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

constexpr int64_t kExprRows = 1'000'000;
constexpr int64_t kPipeRows = 1'000'000;
constexpr int64_t kPredRows = 1'000'000;

TablePtr ExprTable(int64_t rows) {
  SchemaPtr s = Schema::Make({Field::Attr("a", DataType::kInt64),
                              Field::Attr("b", DataType::kFloat64),
                              Field::Attr("flag", DataType::kBool)})
                    .ValueOrDie();
  Rng rng(17);
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row = {Value::Int64(rng.NextInt(-100, 100)),
                              Value::Float64(rng.NextDouble(-8.0, 8.0)),
                              Value::Bool(rng.NextBool())};
    if (rng.NextBool(0.08)) row[rng.NextBounded(3)] = Value::Null();
    NEXUS_CHECK(b.AppendRow(row).ok());
  }
  return b.Finish().ValueOrDie();
}

double MinMillis(const std::function<void()>& fn, int reps = 3) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.ElapsedMillis());
  }
  return best;
}

// Expression-heavy scan: nulls + conditionals + math keep the interpreter on
// its boxed row path; the whole tree compiles to one register program.
void RunExprArm(benchjson::Recorder* json) {
  TablePtr t = ExprTable(kExprRows);
  ExprPtr e = Add(
      Add(Mul(Func("coalesce", {Col("b"), Lit(0.5)}), Lit(2.0)),
          Func("if", {Func("is_null", {Col("flag")}), Mul(Col("b"), Col("b")),
                      Func("sqrt", {Func("abs", {Col("b")})})})),
      Func("min", {Func("coalesce", {Cast(DataType::kFloat64, Col("a")),
                                     Lit(0.0)}),
                   Lit(50.0)}));

  Column interp = EvalExprInterpreted(*e, *t).ValueOrDie();
  double ms_interp =
      MinMillis([&] { EvalExprInterpreted(*e, *t).ValueOrDie(); });
  Column compiled = EvalExprVector(*e, *t).ValueOrDie();
  double ms_compiled =
      MinMillis([&] { EvalExprVector(*e, *t).ValueOrDie(); });

  NEXUS_CHECK(SameBits(compiled, interp));  // byte-identical, not just close
  json->Record("e16_expr_interp", kExprRows, ms_interp);
  json->Record("e16_expr_compiled", kExprRows, ms_compiled);
  std::printf("expression-heavy scan over %lld rows\n",
              static_cast<long long>(kExprRows));
  std::printf("  interpreter  %9.2f ms\n", ms_interp);
  std::printf("  compiled VM  %9.2f ms   (%.2fx)\n", ms_compiled,
              ms_interp / ms_compiled);
  NEXUS_CHECK(ms_interp / ms_compiled >= 5.0);
}

PlanPtr PipelinePlan() {
  return Plan::Aggregate(
      Plan::Extend(
          Plan::Select(Plan::Scan("fact"),
                       And(Gt(Col("k"), Lit(5)), Lt(Col("k"), Lit(95)))),
          {{"z", Add(Mul(Col("v"), Lit(3.0)), Col("w"))},
           {"z2", Func("if", {Gt(Col("v"), Lit(0.0)), Col("v"),
                              Mul(Col("v"), Lit(-1.0))})}}),
      {"g"},
      {AggSpec{AggFunc::kSum, Col("z"), "sz"},
       AggSpec{AggFunc::kSum, Col("z2"), "sz2"},
       AggSpec{AggFunc::kCount, nullptr, "n"}});
}

// The plan's operators run one by one on the relational kernels: every
// expression compiles, but each operator materializes its output table.
TablePtr RunPerOperator(const Plan& plan, const TablePtr& fact) {
  const Plan& extend = *plan.child(0);
  const Plan& select = *extend.child(0);
  TablePtr t =
      relational::Filter(fact, *select.As<SelectOp>().predicate).ValueOrDie();
  t = relational::Extend(t, extend.As<ExtendOp>().defs).ValueOrDie();
  return algebra::LowerAggregate(t, plan.As<AggregateOp>()).ValueOrDie();
}

void RunPipelineArm(benchjson::Recorder* json) {
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("g", DataType::kInt64),
                              Field::Attr("v", DataType::kFloat64),
                              Field::Attr("w", DataType::kFloat64)})
                    .ValueOrDie();
  Rng rng(23);
  TableBuilder b(s);
  for (int64_t i = 0; i < kPipeRows; ++i) {
    // Integer-valued doubles keep the grouped sums exact, so the three arms
    // can be compared byte-for-byte.
    NEXUS_CHECK(b.AppendRow({Value::Int64(rng.NextInt(0, 99)),
                             Value::Int64(rng.NextInt(0, 15)),
                             Value::Float64(static_cast<double>(
                                 rng.NextInt(-50, 50))),
                             Value::Float64(static_cast<double>(
                                 rng.NextInt(-10, 10)))})
                    .ok());
  }
  TablePtr fact = b.Finish().ValueOrDie();
  ProviderPtr relstore = MakeRelationalProvider();
  NEXUS_CHECK(relstore->catalog()->Put("fact", Dataset(fact)).ok());
  PlanPtr plan = PipelinePlan();

  auto run_arm = [](const std::function<TablePtr()>& run) {
    TablePtr out = run();
    double ms = MinMillis([&] { run(); });
    return std::make_pair(ms, out);
  };
  ReferenceExecutor reference(relstore->catalog());
  auto [ms_interp, t_interp] = run_arm(
      [&] { return reference.Execute(*plan).ValueOrDie().table(); });
  auto [ms_compiled, t_compiled] =
      run_arm([&] { return RunPerOperator(*plan, fact); });
  auto [ms_fused, t_fused] = run_arm(
      [&] { return relstore->Execute(*plan).ValueOrDie().table(); });

  NEXUS_CHECK(SameBits(*t_compiled, *t_interp));
  NEXUS_CHECK(SameBits(*t_fused, *t_interp));
  json->Record("e16_pipe_interp", kPipeRows, ms_interp);
  json->Record("e16_pipe_compiled", kPipeRows, ms_compiled);
  json->Record("e16_pipe_fused", kPipeRows, ms_fused);
  std::printf("\nfilter->extend->aggregate pipeline over %lld rows\n",
              static_cast<long long>(kPipeRows));
  std::printf("  reference executor %9.2f ms\n", ms_interp);
  std::printf("  per-operator       %9.2f ms   (%.2fx)\n", ms_compiled,
              ms_interp / ms_compiled);
  std::printf("  compiled + fused   %9.2f ms   (%.2fx)\n", ms_fused,
              ms_interp / ms_fused);

  // Cache arm: re-executing the same plan must compile nothing.
  auto& reg = telemetry::MetricsRegistry::Global();
  telemetry::Counter* compiles = reg.counter("expr.compile");
  telemetry::Counter* hits = reg.counter("expr.compile_cache_hit");
  ClearProgramCacheForTest();
  const int64_t c0 = compiles->value();
  WallTimer cold_t;
  NEXUS_CHECK(relstore->Execute(*plan).ok());
  double ms_cold = cold_t.ElapsedMillis();
  const int64_t cold_compiles = compiles->value() - c0;
  const int64_t c1 = compiles->value();
  const int64_t h1 = hits->value();
  WallTimer warm_t;
  NEXUS_CHECK(relstore->Execute(*plan).ok());
  double ms_warm = warm_t.ElapsedMillis();
  const int64_t warm_compiles = compiles->value() - c1;
  const int64_t warm_hits = hits->value() - h1;
  NEXUS_CHECK(cold_compiles > 0);
  NEXUS_CHECK(warm_compiles == 0);
  NEXUS_CHECK(warm_hits > 0);
  json->Record("e16_cache_cold", cold_compiles, ms_cold);
  json->Record("e16_cache_warm", warm_hits, ms_warm);
  std::printf("\nprogram cache: cold run compiled %lld program(s); "
              "warm run compiled 0, hit cache %lld time(s)\n",
              static_cast<long long>(cold_compiles),
              static_cast<long long>(warm_hits));
}

// Range filter over random rows: the compares' outcomes are unpredictable,
// so a branchy compare or selection loop mispredicts on most lanes.
void RunPredicateArm(benchjson::Recorder* json) {
  SchemaPtr s = Schema::Make({Field::Attr("qty", DataType::kInt64),
                              Field::Attr("day", DataType::kInt64)})
                    .ValueOrDie();
  Rng rng(31);
  std::vector<int64_t> qty(static_cast<size_t>(kPredRows));
  std::vector<int64_t> day(static_cast<size_t>(kPredRows));
  for (int64_t i = 0; i < kPredRows; ++i) {
    qty[static_cast<size_t>(i)] = rng.NextInt(1, 10);
    day[static_cast<size_t>(i)] = rng.NextInt(0, 364);
  }
  TablePtr t = Table::Make(s, {Column::FromInt64(std::move(qty)),
                               Column::FromInt64(std::move(day))})
                   .ValueOrDie();
  ExprPtr pred = And(And(Ge(Col("qty"), Lit(9)), Ge(Col("day"), Lit(53))),
                     Lt(Col("day"), Lit(113)));

  // The interpreter's selection: its boolean mask, scanned row by row.
  auto interp = [&] {
    Column mask = EvalExprInterpreted(*pred, *t).ValueOrDie();
    std::vector<int64_t> sel;
    for (int64_t r = 0; r < mask.size(); ++r) {
      if (!mask.IsNull(r) && mask.bools()[static_cast<size_t>(r)] != 0) {
        sel.push_back(r);
      }
    }
    return sel;
  };
  auto compiled = [&] { return EvalPredicate(*pred, *t).ValueOrDie(); };
  std::vector<int64_t> sel_interp = interp();
  std::vector<int64_t> sel_compiled = compiled();
  NEXUS_CHECK(sel_compiled == sel_interp);  // same rows, same order
  double ms_interp = MinMillis([&] { interp(); });
  double ms_compiled = MinMillis([&] { compiled(); });
  json->Record("e16_pred_interp", kPredRows, ms_interp);
  json->Record("e16_pred_compiled", kPredRows, ms_compiled);
  std::printf("\nrange predicate (3 conjuncts) over %lld rows, %zu selected\n",
              static_cast<long long>(kPredRows), sel_compiled.size());
  std::printf("  interpreter  %9.2f ms\n", ms_interp);
  std::printf("  compiled VM  %9.2f ms   (%.2fx)\n", ms_compiled,
              ms_interp / ms_compiled);
}

}  // namespace

int main() {
  benchjson::Recorder json("compile");
  std::printf("E16: compiled expression bytecode vs interpreter\n");
  std::printf("threads=%d\n\n", GetThreadCount());
  RunExprArm(&json);
  RunPipelineArm(&json);
  RunPredicateArm(&json);
  std::printf("\nall byte-identity checks passed\n");
  return 0;
}
