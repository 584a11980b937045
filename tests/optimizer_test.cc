// Optimizer tests: constant folding, selection pushdown, column pruning,
// intent recognition — plus semantics-preservation property tests (optimized
// and unoptimized plans agree on every workload).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/expansion.h"
#include "core/schema_inference.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "optimizer/cardinality.h"
#include "optimizer/fold.h"
#include "optimizer/join_order.h"
#include "optimizer/optimizer.h"
#include "optimizer/stats.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;

TEST(FoldTest, ArithmeticAndBooleans) {
  EXPECT_EQ(FoldConstants(Add(Lit(2), Lit(3)))->ToString(), "5");
  EXPECT_EQ(FoldConstants(Mul(Add(Lit(1), Lit(1)), Col("x")))->ToString(),
            "(2 * x)");
  EXPECT_EQ(FoldConstants(And(Lit(true), Gt(Col("x"), Lit(1))))->ToString(),
            "(x > 1)");
  EXPECT_EQ(FoldConstants(And(Lit(false), Gt(Col("x"), Lit(1))))->ToString(),
            "false");
  EXPECT_EQ(FoldConstants(Or(Lit(false), Col("b")))->ToString(), "b");
  EXPECT_EQ(FoldConstants(Or(Col("b"), Lit(true)))->ToString(), "true");
  EXPECT_EQ(FoldConstants(Not(Not(Col("b"))))->ToString(), "b");
  EXPECT_EQ(FoldConstants(Func("sqrt", {Lit(16.0)}))->ToString(), "4");
  EXPECT_EQ(FoldConstants(Div(Lit(1), Lit(0)))->ToString(), "null");
}

TEST(FoldTest, LeavesNonConstantsAlone) {
  ExprPtr e = Gt(Add(Col("a"), Col("b")), Lit(3));
  EXPECT_TRUE(FoldConstants(e)->Equals(*e));
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SchemaPtr orders = MakeSchema({Field::Attr("oid", DataType::kInt64),
                                   Field::Attr("cid", DataType::kInt64),
                                   Field::Attr("amount", DataType::kFloat64),
                                   Field::Attr("region", DataType::kString)});
    TableBuilder b(orders);
    Rng rng(1);
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_OK(b.AppendRow(
          {I(i), I(rng.NextInt(0, 40)), F(rng.NextDouble(0, 100)),
           S(std::string(1, static_cast<char>('a' + rng.NextBounded(3))))}));
    }
    ASSERT_OK(catalog_.Put("orders", Dataset(b.Finish().ValueOrDie())));

    SchemaPtr cust = MakeSchema({Field::Attr("id", DataType::kInt64),
                                 Field::Attr("tier", DataType::kInt64)});
    TableBuilder cb(cust);
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_OK(cb.AppendRow({I(i), I(rng.NextInt(1, 3))}));
    }
    ASSERT_OK(catalog_.Put("cust", Dataset(cb.Finish().ValueOrDie())));

    SchemaPtr mat = MakeSchema({Field::Dim("i"), Field::Dim("k"),
                                Field::Attr("a", DataType::kFloat64)});
    SchemaPtr mat2 = MakeSchema({Field::Dim("k"), Field::Dim("j"),
                                 Field::Attr("b", DataType::kFloat64)});
    TableBuilder ma(mat), mb(mat2);
    for (int64_t i = 0; i < 6; ++i) {
      for (int64_t k = 0; k < 6; ++k) {
        ASSERT_OK(ma.AppendRow({I(i), I(k), F(static_cast<double>(rng.NextInt(1, 5)))}));
        ASSERT_OK(mb.AppendRow({I(i), I(k), F(static_cast<double>(rng.NextInt(1, 5)))}));
      }
    }
    ASSERT_OK(catalog_.Put("A", Dataset(ma.Finish().ValueOrDie())));
    ASSERT_OK(catalog_.Put("B", Dataset(mb.Finish().ValueOrDie())));
  }

  // Optimized and raw plans must be schema- and value-equivalent.
  void CheckPreserves(const PlanPtr& plan, const OptimizerOptions& opts = {}) {
    OptimizerStats stats;
    ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(plan, catalog_, opts, &stats));
    ASSERT_OK_AND_ASSIGN(SchemaPtr s1, InferSchema(*plan, catalog_));
    ASSERT_OK_AND_ASSIGN(SchemaPtr s2, InferSchema(*optimized, catalog_));
    EXPECT_TRUE(s1->Equals(*s2))
        << s1->ToString() << " vs " << s2->ToString() << "\n"
        << optimized->ToString();
    ReferenceExecutor exec(&catalog_);
    ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*plan));
    ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*optimized));
    EXPECT_TRUE(got.LogicallyEquals(want)) << optimized->ToString();
  }

  InMemoryCatalog catalog_;
};

TEST_F(OptimizerTest, PushesSelectBelowProjectAndExtend) {
  PlanPtr p = Plan::Scan("orders");
  p = Plan::Extend(p, {{"taxed", Mul(Col("amount"), Lit(1.1))}});
  p = Plan::Project(p, {"cid", "taxed"});
  p = Plan::Select(p, Gt(Col("taxed"), Lit(50.0)));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_GE(stats.selections_pushed, 2);
  // The selection now sits below the extend (deeper in the tree rendering).
  std::string tree = optimized->ToString();
  EXPECT_GT(tree.find("select"), tree.find("extend")) << tree;
  EXPECT_NE(tree.find("select"), std::string::npos);
  CheckPreserves(p);
}

TEST_F(OptimizerTest, SplitsConjunctsAcrossJoin) {
  PlanPtr join = Plan::Join(Plan::Scan("orders"), Plan::Scan("cust"),
                            JoinType::kInner, {"cid"}, {"id"});
  PlanPtr p = Plan::Select(
      join, And(Gt(Col("amount"), Lit(10.0)), Eq(Col("tier"), Lit(2))));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_EQ(stats.selections_pushed, 2);
  EXPECT_EQ(optimized->kind(), OpKind::kJoin);  // no residual select left
  CheckPreserves(p);
}

TEST_F(OptimizerTest, DoesNotPushBelowLeftJoinRightSide) {
  PlanPtr join = Plan::Join(Plan::Scan("orders"), Plan::Scan("cust"),
                            JoinType::kLeft, {"cid"}, {"id"});
  PlanPtr p = Plan::Select(join, Eq(Col("tier"), Lit(2)));
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}));
  // tier references the null-extended right side: the select must stay above.
  EXPECT_EQ(optimized->kind(), OpKind::kSelect);
  CheckPreserves(p);
}

TEST_F(OptimizerTest, PushesThroughRenameAndUnion) {
  PlanPtr u = Plan::Union(Plan::Scan("orders"), Plan::Scan("orders"));
  PlanPtr p = Plan::Select(Plan::Rename(u, {{"amount", "amt"}}),
                           Gt(Col("amt"), Lit(90.0)));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_GE(stats.selections_pushed, 2);  // through rename, then into the union
  // Both union branches end up with their own selection.
  std::string tree = optimized->ToString();
  size_t first = tree.find("select");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(tree.find("select", first + 1), std::string::npos) << tree;
  CheckPreserves(p);
}

TEST_F(OptimizerTest, PrunesScanColumns) {
  PlanPtr p = Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(20.0))), {"cid"},
      {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_EQ(stats.projects_inserted, 1);
  EXPECT_NE(optimized->ToString().find("project[cid, amount]"), std::string::npos)
      << optimized->ToString();
  CheckPreserves(p);
}

TEST_F(OptimizerTest, PruningKeepsRootSchema) {
  PlanPtr p = Plan::Join(Plan::Scan("orders"), Plan::Scan("cust"),
                         JoinType::kInner, {"cid"}, {"id"});
  CheckPreserves(p);  // all columns needed at the root: no visible change
}

TEST_F(OptimizerTest, PruningBelowRenameKeepsRenamedSources) {
  // Pruning below a Rename must not remove a column the Rename still maps,
  // whether a Project or a Scan sits under it; renames are simultaneous, so
  // a swap maps each needed name back exactly once.
  const AggSpec total{AggFunc::kSum, Col("amount"), "total"};
  const AggSpec n{AggFunc::kCount, nullptr, "n"};
  std::vector<PlanPtr> plans = {
      Plan::Aggregate(Plan::Rename(Plan::Project(Plan::Scan("orders"),
                                                 {"cid", "amount"}),
                                   {{"amount", "amt"}}),
                      {"cid"}, {n}),
      Plan::Aggregate(Plan::Rename(Plan::Scan("orders"), {{"region", "r"}}),
                      {"cid"}, {total}),
      Plan::Aggregate(Plan::Rename(Plan::Scan("orders"),
                                   {{"cid", "region"}, {"region", "cid"}}),
                      {"region"}, {total}),
  };
  ReferenceExecutor exec(&catalog_);
  for (const PlanPtr& p : plans) {
    ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}));
    ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*p));
    ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*optimized));
    EXPECT_TRUE(got.table()->Equals(*want.table()))
        << p->ToString() << "\n=>\n" << optimized->ToString();
  }
}

TEST_F(OptimizerTest, RecognizesMatMulPipeline) {
  // Hand-written matrix multiply as join + multiply + sum.
  PlanPtr right = Plan::Rename(Plan::Scan("B"),
                               {{"k", "k2"}, {"j", "j2"}, {"b", "bv"}});
  PlanPtr joined = Plan::Join(Plan::Scan("A"), right, JoinType::kInner, {"k"},
                              {"k2"});
  PlanPtr prod = Plan::Extend(joined, {{"p", Mul(Col("a"), Col("bv"))}});
  PlanPtr agg = Plan::Aggregate(prod, {"i", "j2"},
                                {AggSpec{AggFunc::kSum, Col("p"), "c"}});
  PlanPtr p = Plan::Select(agg, Ne(Col("c"), Lit(0)));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_EQ(stats.intents_recognized, 1);
  EXPECT_NE(optimized->ToString().find("matmul"), std::string::npos)
      << optimized->ToString();
  CheckPreserves(p);
}

TEST_F(OptimizerTest, RecognitionInvertsExpansion) {
  ASSERT_OK_AND_ASSIGN(SchemaPtr ls, catalog_.GetSchema("A"));
  ASSERT_OK_AND_ASSIGN(SchemaPtr rs, catalog_.GetSchema("B"));
  ASSERT_OK_AND_ASSIGN(
      PlanPtr expanded,
      ExpandMatMul(Plan::Scan("A"), Plan::Scan("B"), MatMulOp{"c"}, *ls, *rs));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(expanded, catalog_, {}, &stats));
  EXPECT_EQ(stats.intents_recognized, 1);
  CheckPreserves(expanded);
}

TEST_F(OptimizerTest, RecognitionDisabledLeavesPlanAlone) {
  PlanPtr right = Plan::Rename(Plan::Scan("B"),
                               {{"k", "k2"}, {"j", "j2"}, {"b", "bv"}});
  PlanPtr joined = Plan::Join(Plan::Scan("A"), right, JoinType::kInner, {"k"},
                              {"k2"});
  PlanPtr prod = Plan::Extend(joined, {{"p", Mul(Col("a"), Col("bv"))}});
  PlanPtr agg = Plan::Aggregate(prod, {"i", "j2"},
                                {AggSpec{AggFunc::kSum, Col("p"), "c"}});
  PlanPtr p = Plan::Select(agg, Ne(Col("c"), Lit(0)));
  OptimizerOptions opts;
  opts.recognize_intent = false;
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, opts, &stats));
  EXPECT_EQ(stats.intents_recognized, 0);
  EXPECT_EQ(optimized->ToString().find("matmul"), std::string::npos);
}

TEST_F(OptimizerTest, NoFalsePositiveRecognition) {
  // Same shape but aggregate uses avg, not sum: not a matrix multiply.
  PlanPtr right = Plan::Rename(Plan::Scan("B"),
                               {{"k", "k2"}, {"j", "j2"}, {"b", "bv"}});
  PlanPtr joined = Plan::Join(Plan::Scan("A"), right, JoinType::kInner, {"k"},
                              {"k2"});
  PlanPtr prod = Plan::Extend(joined, {{"p", Mul(Col("a"), Col("bv"))}});
  PlanPtr agg = Plan::Aggregate(prod, {"i", "j2"},
                                {AggSpec{AggFunc::kAvg, Col("p"), "c"}});
  PlanPtr p = Plan::Select(agg, Ne(Col("c"), Lit(0)));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_EQ(stats.intents_recognized, 0);
  CheckPreserves(p);
}

TEST_F(OptimizerTest, FoldsInsidePlans) {
  PlanPtr p = Plan::Select(Plan::Scan("orders"),
                           And(Lit(true), Gt(Col("amount"), Add(Lit(10.0), Lit(5.0)))));
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_GE(stats.expressions_folded, 1);
  CheckPreserves(p);
}

TEST_F(OptimizerTest, AblationFlagsIsolatePasses) {
  PlanPtr p = Plan::Select(
      Plan::Project(Plan::Scan("orders"), {"cid", "amount"}),
      Gt(Col("amount"), Lit(50.0)));
  OptimizerOptions off;
  off.fold_constants = off.push_selections = off.recognize_intent =
      off.prune_columns = false;
  ASSERT_OK_AND_ASSIGN(PlanPtr untouched, Optimize(p, catalog_, off));
  EXPECT_TRUE(untouched->Equals(*p));
}

TEST_F(OptimizerTest, RandomizedEquivalenceSweep) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    PlanPtr p = Plan::Scan("orders");
    // Random pipeline of pushdown-relevant operators.
    int steps = static_cast<int>(rng.NextBounded(4)) + 2;
    for (int s = 0; s < steps; ++s) {
      switch (rng.NextBounded(5)) {
        case 0:
          p = Plan::Select(p, Gt(Col("amount"), Lit(rng.NextDouble(0, 100))));
          break;
        case 1:
          p = Plan::Extend(
              p, {{StrCat("e", trial, "_", s), Add(Col("amount"), Lit(1.0))}});
          break;
        case 2:
          p = Plan::Sort(p, {{"oid", rng.NextBool()}});
          break;
        case 3:
          p = Plan::Distinct(p);
          break;
        default:
          p = Plan::Select(p, Ne(Col("region"), Lit("b")));
          break;
      }
    }
    CheckPreserves(p);
  }
}

TEST_F(OptimizerTest, PushesLimitBelowRowPreservingOps) {
  PlanPtr p = Plan::Limit(
      Plan::Rename(
          Plan::Extend(Plan::Scan("orders"), {{"t", Mul(Col("amount"), Lit(2.0))}}),
          {{"t", "taxed"}}),
      7, 2);
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}));
  // The limit should sink below rename and extend, directly onto the scan
  // side (deepest position in the rendering).
  std::string tree = optimized->ToString();
  EXPECT_GT(tree.find("limit"), tree.find("extend")) << tree;
  CheckPreserves(p);
}

TEST_F(OptimizerTest, ComposesAdjacentLimits) {
  PlanPtr p = Plan::Limit(Plan::Limit(Plan::Scan("orders"), 20, 5), 10, 3);
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}));
  ASSERT_EQ(optimized->kind(), OpKind::kLimit);
  EXPECT_EQ(optimized->As<LimitOp>().offset, 8);
  EXPECT_EQ(optimized->As<LimitOp>().limit, 10);
  EXPECT_EQ(optimized->child(0)->kind(), OpKind::kScan);
  CheckPreserves(p);
  // Outer window larger than the inner remainder.
  PlanPtr clipped = Plan::Limit(Plan::Limit(Plan::Scan("orders"), 10, 0), 50, 8);
  ASSERT_OK_AND_ASSIGN(PlanPtr opt2, Optimize(clipped, catalog_, {}));
  EXPECT_EQ(opt2->As<LimitOp>().limit, 2);
  CheckPreserves(clipped);
}

TEST_F(OptimizerTest, LimitDoesNotCrossFilteringOps) {
  // Pushing a limit below select/sort/distinct would change results.
  PlanPtr p = Plan::Limit(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))), 5, 0);
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}));
  EXPECT_EQ(optimized->kind(), OpKind::kLimit);
  EXPECT_EQ(optimized->child(0)->kind(), OpKind::kSelect);
  CheckPreserves(p);
}

TEST_F(OptimizerTest, OptimizesInsideIterateBody) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(catalog_.Put("st", Dataset(MakeTable(s, {{F(8.0)}}))));
  IterateOp op;
  op.body = Plan::Rename(
      Plan::Project(
          Plan::Select(
              Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
              And(Lit(true), Gt(Col("h"), Lit(-1.0)))),
          {"h"}),
      {{"h", "v"}});
  op.max_iters = 3;
  PlanPtr p = Plan::Iterate(Plan::Scan("st"), op);
  CheckPreserves(p);
}

// ---------------------------------------------------------------------------
// E14: statistics, cardinality estimation, and join reordering.
// ---------------------------------------------------------------------------

TEST(StatsTest, ComputesColumnStatistics) {
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("name", DataType::kString)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_OK(b.AppendRow({Value::Int64(i % 50), Value::String("row")}));
  }
  ASSERT_OK(b.AppendRow({Value::Null(), Value::Null()}));
  TableStats stats = ComputeStats(Dataset(b.Finish().ValueOrDie()));
  EXPECT_EQ(stats.row_count, 1001);
  const ColumnStats& k = stats.columns.at("k");
  EXPECT_TRUE(k.has_minmax);
  EXPECT_EQ(k.min, 0.0);
  EXPECT_EQ(k.max, 49.0);
  EXPECT_EQ(k.null_count, 1);
  // Small column: the KMV sketch is exact.
  EXPECT_NEAR(k.distinct, 50.0, 1.0);
  const ColumnStats& name = stats.columns.at("name");
  EXPECT_FALSE(name.has_minmax);
  // "row" is 3 bytes + 4 offset bytes on the NXB1 wire.
  EXPECT_NEAR(name.avg_width, 7.0, 0.5);
}

TEST(StatsTest, CatalogComputesRefreshesAndOverrides) {
  InMemoryCatalog catalog;
  SchemaPtr s = Schema::Make({Field::Attr("v", DataType::kInt64)}).ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = 0; i < 10; ++i) ASSERT_OK(b.AppendRow({Value::Int64(i)}));
  ASSERT_OK(catalog.Put("t", Dataset(b.Finish().ValueOrDie())));

  ASSERT_OK_AND_ASSIGN(TableStats stats, catalog.GetStats("t"));
  EXPECT_EQ(stats.row_count, 10);
  EXPECT_FALSE(catalog.GetStats("missing").ok());

  stats.row_count = 777;
  ASSERT_OK(catalog.OverrideStats("t", stats));
  ASSERT_OK_AND_ASSIGN(TableStats forged, catalog.GetStats("t"));
  EXPECT_EQ(forged.row_count, 777);
  ASSERT_OK(catalog.RefreshStats("t"));
  ASSERT_OK_AND_ASSIGN(TableStats fresh, catalog.GetStats("t"));
  EXPECT_EQ(fresh.row_count, 10);

  ASSERT_OK(catalog.Drop("t"));
  EXPECT_FALSE(catalog.GetStats("t").ok());
}

TEST(StatsTest, KmvMergeOfSamplesEqualsSketchOfUnion) {
  // The mergeability contract at k = 256: Merge(sketch(A), sketch(B)) must
  // be indistinguishable from sketch(A ∪ B) — same kept set, same estimate.
  // That identity is what makes O(|Δ|) append-time stats sound.
  Rng rng(42);
  KmvSketch a, b, of_union;
  for (int i = 0; i < 30000; ++i) {
    // Hash the draw: the estimator assumes uniform 64-bit hashes.
    uint64_t h = HashInt64(static_cast<uint64_t>(rng.NextInt(1, 1 << 30)) |
                           (static_cast<uint64_t>(i) << 32));
    // Overlapping streams: ~half the hashes land in both.
    bool in_a = rng.NextBool(0.7);
    bool in_b = !in_a || rng.NextBool(0.4);
    if (in_a) a.Add(h);
    if (in_b) b.Add(h);
    of_union.Add(h);
  }
  KmvSketch merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.kept(), KmvSketch::kK);
  EXPECT_EQ(merged.kept(), of_union.kept());
  EXPECT_EQ(merged.Estimate(), of_union.Estimate());
  // And the estimate itself is in the right ballpark for ~30k distinct.
  EXPECT_NEAR(merged.Estimate(), 30000.0, 30000.0 * 0.15);

  // Below k the sketch is exact, and merging with an empty sketch is a
  // no-op in both directions.
  KmvSketch small, empty;
  for (uint64_t h = 1; h <= 100; ++h) small.Add(h * 7919);
  small.Merge(empty);
  EXPECT_EQ(small.Estimate(), 100.0);
  empty.Merge(small);
  EXPECT_EQ(empty.Estimate(), 100.0);
}

TEST(StatsTest, AccumulatorMatchesBatchComputeOverAppends) {
  // Feeding a table batch-by-batch through TableStatsAccumulator must agree
  // with a one-shot ComputeStats over the concatenation (full scan, no
  // sampling: the table is far under kStatsSampleLimit).
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("name", DataType::kString)})
                    .ValueOrDie();
  Rng rng(9);
  TableStatsAccumulator acc(s);
  TableBuilder whole(s);
  for (int batch = 0; batch < 5; ++batch) {
    TableBuilder b(s);
    for (int i = 0; i < 300; ++i) {
      Value k = rng.NextBounded(30) == 0 ? Value::Null()
                                         : Value::Int64(rng.NextInt(-50, 400));
      Value n = Value::String(std::string(1 + rng.NextBounded(6), 'x'));
      ASSERT_OK(b.AppendRow({k, n}));
      ASSERT_OK(whole.AppendRow({k, n}));
    }
    acc.AddTable(*b.Finish().ValueOrDie());
  }
  TableStats inc = acc.Snapshot();
  TableStats full = ComputeStats(Dataset(whole.Finish().ValueOrDie()));
  EXPECT_EQ(inc.row_count, full.row_count);
  for (const std::string& col : {std::string("k"), std::string("name")}) {
    const ColumnStats& i = inc.columns.at(col);
    const ColumnStats& f = full.columns.at(col);
    EXPECT_EQ(i.null_count, f.null_count) << col;
    EXPECT_EQ(i.has_minmax, f.has_minmax) << col;
    EXPECT_EQ(i.min, f.min) << col;
    EXPECT_EQ(i.max, f.max) << col;
    EXPECT_EQ(i.distinct, f.distinct) << col;
    EXPECT_NEAR(i.avg_width, f.avg_width, 1e-9) << col;
  }
}

// Single-predicate filters over uniform data must estimate within a q-error
// of 2 (the issue's acceptance bar; uniform data is the model's home turf).
TEST(CardinalityTest, FilterQErrorWithinTwoOnUniformData) {
  InMemoryCatalog catalog;
  SchemaPtr s = Schema::Make({Field::Attr("u", DataType::kInt64),
                              Field::Attr("w", DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  Rng rng(5);
  const int64_t kRows = 10000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(b.AppendRow(
        {Value::Int64(rng.NextInt(0, 999)), Value::Float64(rng.NextDouble(0, 1))}));
  }
  ASSERT_OK(catalog.Put("t", Dataset(b.Finish().ValueOrDie())));
  ReferenceExecutor exec(&catalog);

  std::vector<ExprPtr> preds = {
      Eq(Col("u"), Lit(int64_t{123})),  Lt(Col("u"), Lit(int64_t{100})),
      Ge(Col("u"), Lit(int64_t{900})),  Lt(Col("w"), Lit(0.25)),
      Gt(Col("w"), Lit(0.9)),           Ne(Col("u"), Lit(int64_t{4})),
  };
  for (const ExprPtr& pred : preds) {
    PlanPtr p = Plan::Select(Plan::Scan("t"), pred);
    ASSERT_OK_AND_ASSIGN(double est, EstimateCardinality(*p, catalog));
    ASSERT_OK_AND_ASSIGN(Dataset actual, exec.Execute(*p));
    double act = std::max<double>(1.0, static_cast<double>(actual.num_rows()));
    double e = std::max(1.0, est);
    double q = std::max(e / act, act / e);
    EXPECT_LE(q, 2.0) << "pred " << pred->ToString() << ": est " << est
                      << " actual " << actual.num_rows();
  }
}

TEST(CardinalityTest, JoinUsesContainmentAssumption) {
  InMemoryCatalog catalog;
  SchemaPtr ls = Schema::Make({Field::Attr("k", DataType::kInt64)}).ValueOrDie();
  SchemaPtr rs = Schema::Make({Field::Attr("k", DataType::kInt64),
                               Field::Attr("p", DataType::kInt64)})
                     .ValueOrDie();
  TableBuilder lb(ls), rb(rs);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_OK(lb.AppendRow({Value::Int64(i % 100)}));  // 100 distinct keys
  }
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(rb.AppendRow({Value::Int64(i), Value::Int64(i)}));  // pk side
  }
  ASSERT_OK(catalog.Put("l", Dataset(lb.Finish().ValueOrDie())));
  ASSERT_OK(catalog.Put("r", Dataset(rb.Finish().ValueOrDie())));
  PlanPtr p = Plan::Join(Plan::Scan("l"), Plan::Scan("r"), JoinType::kInner,
                         {"k"}, {"k"});
  // |L ⋈ R| = 1000·100 / max(100, 100) = 1000 (every fact row survives).
  ASSERT_OK_AND_ASSIGN(double est, EstimateCardinality(*p, catalog));
  EXPECT_NEAR(est, 1000.0, 150.0);
}

class JoinOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(13);
    // Skewed pair: a ⋈ b on x explodes (10 distinct x), b ⋈ c on y is
    // selective (1000 distinct y, c holds 5 of them).
    SchemaPtr sa = MakeSchema({Field::Attr("x", DataType::kInt64),
                               Field::Attr("a_val", DataType::kFloat64)});
    TableBuilder ab(sa);
    for (int64_t i = 0; i < 400; ++i) {
      ASSERT_OK(ab.AppendRow({I(rng.NextInt(0, 9)), F(rng.NextDouble(0, 1))}));
    }
    ASSERT_OK(catalog_.Put("a", Dataset(ab.Finish().ValueOrDie())));
    SchemaPtr sb = MakeSchema({Field::Attr("x", DataType::kInt64),
                               Field::Attr("y", DataType::kInt64)});
    TableBuilder bb(sb);
    for (int64_t i = 0; i < 400; ++i) {
      ASSERT_OK(bb.AppendRow({I(rng.NextInt(0, 9)), I(rng.NextInt(0, 999))}));
    }
    ASSERT_OK(catalog_.Put("b", Dataset(bb.Finish().ValueOrDie())));
    SchemaPtr sc = MakeSchema({Field::Attr("y", DataType::kInt64),
                               Field::Attr("label", DataType::kString)});
    TableBuilder cb(sc);
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_OK(cb.AppendRow({I(i), S(StrCat("c", i))}));
    }
    ASSERT_OK(catalog_.Put("c", Dataset(cb.Finish().ValueOrDie())));
  }

  PlanPtr WrittenOrder() {
    PlanPtr p = Plan::Join(Plan::Scan("a"), Plan::Scan("b"), JoinType::kInner,
                           {"x"}, {"x"});
    return Plan::Join(p, Plan::Scan("c"), JoinType::kInner, {"y"}, {"y"});
  }

  InMemoryCatalog catalog_;
};

TEST_F(JoinOrderTest, ReordersSkewedJoinAndPreservesResults) {
  PlanPtr p = WrittenOrder();
  int64_t reordered = 0;
  ASSERT_OK_AND_ASSIGN(PlanPtr better, ReorderJoins(p, catalog_, &reordered));
  EXPECT_GE(reordered, 1);
  // Same schema, same rows.
  ASSERT_OK_AND_ASSIGN(SchemaPtr s1, InferSchema(*p, catalog_));
  ASSERT_OK_AND_ASSIGN(SchemaPtr s2, InferSchema(*better, catalog_));
  EXPECT_TRUE(s1->Equals(*s2)) << s1->ToString() << " vs " << s2->ToString();
  ReferenceExecutor exec(&catalog_);
  ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*p));
  ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*better));
  EXPECT_TRUE(got.LogicallyEquals(want)) << better->ToString();
  // The selective pair must sit at the bottom now: some join of two bare
  // scans over exactly {b, c}.
  bool bc_at_bottom = false;
  std::function<void(const Plan&)> walk = [&](const Plan& node) {
    if (node.kind() == OpKind::kJoin && node.child(0)->kind() == OpKind::kScan &&
        node.child(1)->kind() == OpKind::kScan) {
      std::set<std::string> tables = {node.child(0)->As<ScanOp>().table,
                                      node.child(1)->As<ScanOp>().table};
      if (tables == std::set<std::string>{"b", "c"}) bc_at_bottom = true;
    }
    for (const PlanPtr& c : node.children()) walk(*c);
  };
  walk(*better);
  EXPECT_TRUE(bc_at_bottom) << better->ToString();
}

TEST_F(JoinOrderTest, DisabledPassLeavesWrittenOrder) {
  PlanPtr p = WrittenOrder();
  OptimizerOptions off;
  off.reorder_joins = false;
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr untouched, Optimize(p, catalog_, off, &stats));
  EXPECT_EQ(stats.joins_reordered, 0);
  // Both joins still in written nesting: a ⋈ b below, c on top.
  ASSERT_EQ(untouched->kind(), OpKind::kJoin);
  EXPECT_EQ(untouched->child(0)->kind(), OpKind::kJoin);

  OptimizerStats on_stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr reordered, Optimize(p, catalog_, {}, &on_stats));
  EXPECT_GE(on_stats.joins_reordered, 1);
  EXPECT_GT(on_stats.estimated_rows_root, 0);
}

TEST_F(JoinOrderTest, PruningNarrowsProjectsUnderAggregate) {
  // Skew-shaped: the written order joins the exploding pair first, so DP
  // reorder moves it and restores the written column order with a Project
  // above the new join tree. Pruning must narrow that Project (and every
  // other one) to what the aggregate and the joins above it read.
  PlanPtr p = Plan::Aggregate(WrittenOrder(), {"label"},
                              {AggSpec{AggFunc::kCount, nullptr, "n"},
                               AggSpec{AggFunc::kSum, Col("x"), "sx"}});
  p = Plan::Sort(p, {SortKey{"label", true}});
  OptimizerStats stats;
  ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_, {}, &stats));
  EXPECT_GE(stats.joins_reordered, 1);
  const std::set<std::string> needed = {"label", "x", "y"};
  int projects = 0;
  std::function<void(const Plan&)> walk = [&](const Plan& node) {
    if (node.kind() == OpKind::kProject) {
      ++projects;
      for (const std::string& c : node.As<ProjectOp>().columns) {
        EXPECT_TRUE(needed.count(c)) << "project keeps unneeded '" << c
                                     << "':\n" << optimized->ToString();
      }
    }
    for (const PlanPtr& c : node.children()) walk(*c);
  };
  walk(*optimized);
  EXPECT_GE(projects, 1) << optimized->ToString();
  ReferenceExecutor exec(&catalog_);
  ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*p));
  ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*optimized));
  EXPECT_TRUE(got.table()->Equals(*want.table())) << optimized->ToString();
}

TEST_F(JoinOrderTest, OuterJoinsAreNotReordered) {
  PlanPtr p = Plan::Join(Plan::Scan("a"), Plan::Scan("b"), JoinType::kLeft,
                         {"x"}, {"x"});
  p = Plan::Join(p, Plan::Scan("c"), JoinType::kLeft, {"y"}, {"y"});
  int64_t reordered = 0;
  ASSERT_OK_AND_ASSIGN(PlanPtr out, ReorderJoins(p, catalog_, &reordered));
  EXPECT_EQ(reordered, 0);
  EXPECT_TRUE(out->Equals(*p));
}

}  // namespace
}  // namespace nexus
