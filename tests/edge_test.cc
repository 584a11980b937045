// Edge-case suite: empty inputs, single rows, extreme values, and failure
// propagation through every layer. These paths are where production systems
// break first.
#include <gtest/gtest.h>

#include "algebra/kernels.h"
#include "core/schema_inference.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "relational/engine.h"
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

class EmptyInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SchemaPtr rel = MakeSchema({Field::Attr("k", DataType::kInt64),
                                Field::Attr("v", DataType::kFloat64)});
    ASSERT_OK(catalog_.Put("empty", Dataset(Table::Empty(rel))));
    ASSERT_OK(catalog_.Put("one", Dataset(MakeTable(rel, {{I(1), F(2.0)}}))));
    SchemaPtr grid = MakeSchema({Field::Dim("x"), Field::Attr("v", DataType::kFloat64)});
    ASSERT_OK(catalog_.Put("empty_grid", Dataset(Table::Empty(grid))));
  }

  TablePtr Run(const PlanPtr& p) {
    ReferenceExecutor exec(&catalog_);
    auto r = exec.Execute(*p);
    EXPECT_TRUE(r.ok()) << r.status() << "\n" << p->ToString();
    auto t = r.ValueOrDie().AsTable();
    EXPECT_OK(t.status());
    return t.ValueOrDie();
  }

  InMemoryCatalog catalog_;
};

TEST_F(EmptyInputTest, RelationalOperatorsOnEmptyTables) {
  PlanPtr e = Plan::Scan("empty");
  EXPECT_EQ(Run(Plan::Select(e, Gt(Col("v"), Lit(0.0))))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Project(e, {"v"}))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Extend(e, {{"w", Add(Col("v"), Lit(1.0))}}))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Sort(e, {{"v", true}}))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Distinct(e))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Limit(e, 10, 0))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Union(e, e))->num_rows(), 0);
  // Joins with an empty side.
  EXPECT_EQ(Run(Plan::Join(e, Plan::Rename(Plan::Scan("one"), {{"v", "rv"}}),
                           JoinType::kInner, {"k"}, {"k"}))
                ->num_rows(),
            0);
  EXPECT_EQ(Run(Plan::Join(Plan::Scan("one"),
                           Plan::Rename(e, {{"k", "k2"}, {"v", "v2"}}),
                           JoinType::kLeft, {"k"}, {"k2"}))->num_rows(), 1);
  EXPECT_EQ(Run(Plan::Join(Plan::Scan("one"),
                           Plan::Rename(e, {{"k", "k2"}, {"v", "v2"}}),
                           JoinType::kAnti, {"k"}, {"k2"}))->num_rows(), 1);
}

TEST_F(EmptyInputTest, GlobalAggregateOverEmptyYieldsOneRow) {
  TablePtr t = Run(Plan::Aggregate(Plan::Scan("empty"), {},
                                   {AggSpec{AggFunc::kCount, nullptr, "n"},
                                    AggSpec{AggFunc::kSum, Col("v"), "s"},
                                    AggSpec{AggFunc::kMin, Col("v"), "lo"}}));
  ASSERT_EQ(t->num_rows(), 1);
  EXPECT_EQ(t->At(0, 0), I(0));
  EXPECT_TRUE(t->At(0, 1).is_null());
  EXPECT_TRUE(t->At(0, 2).is_null());
  // Grouped aggregate over empty stays empty.
  EXPECT_EQ(Run(Plan::Aggregate(Plan::Scan("empty"), {"k"},
                                {AggSpec{AggFunc::kCount, nullptr, "n"}}))
                ->num_rows(),
            0);
  // The vectorized engine agrees.
  AggregateOp spec;
  spec.aggs = {AggSpec{AggFunc::kCount, nullptr, "n"},
               AggSpec{AggFunc::kSum, Col("v"), "s"}};
  ASSERT_OK_AND_ASSIGN(
      TablePtr vt, algebra::LowerAggregate(Table::Empty(MakeSchema(
                                                 {Field::Attr("k", DataType::kInt64),
                                                  Field::Attr("v", DataType::kFloat64)})),
                                             spec));
  ASSERT_EQ(vt->num_rows(), 1);
  EXPECT_EQ(vt->At(0, 0), I(0));
  EXPECT_TRUE(vt->At(0, 1).is_null());
}

TEST_F(EmptyInputTest, ArrayOperatorsOnEmptyDimensionedTables) {
  PlanPtr g = Plan::Scan("empty_grid");
  EXPECT_EQ(Run(Plan::Slice(g, {{"x", 0, 10}}))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Shift(g, {{"x", 5}}))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Regrid(g, {{"x", 2}}, AggFunc::kSum))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Window(g, {{"x", 1}}, AggFunc::kAvg))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Transpose(g, {"x"}))->num_rows(), 0);
  EXPECT_EQ(Run(Plan::Unbox(g))->num_rows(), 0);
}

TEST_F(EmptyInputTest, MatMulWithEmptySide) {
  SchemaPtr ms = MakeSchema({Field::Dim("i"), Field::Dim("k"),
                             Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(catalog_.Put("me", Dataset(Table::Empty(ms))));
  SchemaPtr ms2 = MakeSchema({Field::Dim("k"), Field::Dim("j"),
                              Field::Attr("w", DataType::kFloat64)});
  ASSERT_OK(catalog_.Put("mfull", Dataset(MakeTable(
                                      ms2, {{I(0), I(0), F(1.0)}}))));
  EXPECT_EQ(Run(Plan::MatMul(Plan::Scan("me"), Plan::Scan("mfull")))->num_rows(), 0);
}

TEST_F(EmptyInputTest, IterateOverEmptyState) {
  IterateOp op;
  op.body = Plan::Select(Plan::LoopVar(), Gt(Col("v"), Lit(0.0)));
  op.max_iters = 3;
  EXPECT_EQ(Run(Plan::Iterate(Plan::Scan("empty"), op))->num_rows(), 0);
}

TEST_F(EmptyInputTest, PageRankOnEmptyEdgeTable) {
  SchemaPtr es = MakeSchema({Field::Attr("src", DataType::kInt64),
                             Field::Attr("dst", DataType::kInt64)});
  ASSERT_OK(catalog_.Put("no_edges", Dataset(Table::Empty(es))));
  PageRankOp op;
  EXPECT_EQ(Run(Plan::PageRank(Plan::Scan("no_edges"), op))->num_rows(), 0);
}

TEST(ExtremeValueTest, Int64BoundarySurvivesPipeline) {
  InMemoryCatalog catalog;
  SchemaPtr s =
      Schema::Make({Field::Attr("x", DataType::kInt64)}).ValueOrDie();
  int64_t lo = std::numeric_limits<int64_t>::min() + 1;
  int64_t hi = std::numeric_limits<int64_t>::max();
  TableBuilder b(s);
  ASSERT_OK(b.AppendRow({I(lo)}));
  ASSERT_OK(b.AppendRow({I(hi)}));
  ASSERT_OK(b.AppendRow({I(0)}));
  ASSERT_OK(catalog.Put("t", Dataset(b.Finish().ValueOrDie())));
  ReferenceExecutor exec(&catalog);
  // min/max/sort keep the exact extremes.
  ASSERT_OK_AND_ASSIGN(
      Dataset d, exec.Execute(*Plan::Aggregate(
                     Plan::Scan("t"), {},
                     {AggSpec{AggFunc::kMin, Col("x"), "lo"},
                      AggSpec{AggFunc::kMax, Col("x"), "hi"}})));
  ASSERT_OK_AND_ASSIGN(TablePtr t, d.AsTable());
  EXPECT_EQ(t->At(0, 0), I(lo));
  EXPECT_EQ(t->At(0, 1), I(hi));
  ASSERT_OK_AND_ASSIGN(Dataset sorted,
                       exec.Execute(*Plan::Sort(Plan::Scan("t"), {{"x", true}})));
  ASSERT_OK_AND_ASSIGN(TablePtr st, sorted.AsTable());
  EXPECT_EQ(st->At(0, 0), I(lo));
  EXPECT_EQ(st->At(2, 0), I(hi));
}

TEST(FailurePropagationTest, ServerErrorsSurfaceWithContext) {
  Cluster cluster;
  ASSERT_OK(cluster.AddServer("relstore", MakeRelationalProvider()));
  Coordinator coord(&cluster);
  // Type error deep in a plan: surfaces as a Status, no crash, no temps.
  SchemaPtr s = testing::MakeSchema({Field::Attr("a", DataType::kString)});
  ASSERT_OK(cluster.PutData("relstore", "t",
                            Dataset(testing::MakeTable(s, {{S("x")}}))));
  auto r = coord.Execute(Plan::Select(Plan::Scan("t"), Gt(Col("a"), Lit(1))));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError()) << r.status();
  for (const std::string& name : cluster.provider("relstore")->catalog()->Names()) {
    EXPECT_EQ(name.find("__frag_"), std::string::npos);
  }
}

TEST(FailurePropagationTest, MeasurelessIterateWithZeroIterationsRejected) {
  InMemoryCatalog catalog;
  SchemaPtr s = Schema::Make({Field::Attr("v", DataType::kFloat64)}).ValueOrDie();
  ASSERT_OK(catalog.Put("st", Dataset(Table::Empty(s))));
  IterateOp op;
  op.body = Plan::LoopVar();
  op.max_iters = 0;
  InferContext ctx;
  ctx.catalog = &catalog;
  EXPECT_FALSE(InferSchema(*Plan::Iterate(Plan::Scan("st"), op), &ctx).ok());
}

TEST(SingleRowTest, WindowAndRegridOnLoneCell) {
  InMemoryCatalog catalog;
  SchemaPtr s = Schema::Make({Field::Dim("x"), Field::Dim("y"),
                              Field::Attr("v", DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  ASSERT_OK(b.AppendRow({I(5), I(-3), F(42.0)}));
  ASSERT_OK(catalog.Put("cell", Dataset(b.Finish().ValueOrDie())));
  ReferenceExecutor exec(&catalog);
  ASSERT_OK_AND_ASSIGN(
      Dataset w, exec.Execute(*Plan::Window(Plan::Scan("cell"),
                                            {{"x", 2}, {"y", 2}}, AggFunc::kAvg)));
  ASSERT_OK_AND_ASSIGN(TablePtr wt, w.AsTable());
  ASSERT_EQ(wt->num_rows(), 1);
  EXPECT_EQ(wt->At(0, 2), F(42.0));
  ASSERT_OK_AND_ASSIGN(
      Dataset g, exec.Execute(*Plan::Regrid(Plan::Scan("cell"),
                                            {{"x", 10}, {"y", 10}}, AggFunc::kCount)));
  ASSERT_OK_AND_ASSIGN(TablePtr gt, g.AsTable());
  ASSERT_EQ(gt->num_rows(), 1);
  EXPECT_EQ(gt->At(0, 0), I(0));   // floor(5/10)
  EXPECT_EQ(gt->At(0, 1), I(-1));  // floor(-3/10)
}

}  // namespace
}  // namespace nexus
