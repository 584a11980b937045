// Tests for the vectorized relational engine, including differential tests
// against the reference executor on randomized workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algebra/kernels.h"
#include "common/parallel.h"
#include "common/random.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "optimizer/fusion.h"
#include "relational/engine.h"
#include "relational/fused.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::B;
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;

TablePtr Employees() {
  SchemaPtr s = MakeSchema({Field::Attr("id", DataType::kInt64),
                            Field::Attr("dept", DataType::kInt64),
                            Field::Attr("salary", DataType::kFloat64)});
  return MakeTable(s, {{I(1), I(10), F(90)},
                       {I(2), I(10), F(70)},
                       {I(3), I(20), F(80)},
                       {I(4), N(), F(60)}});
}

TablePtr Departments() {
  SchemaPtr s = MakeSchema({Field::Attr("did", DataType::kInt64),
                            Field::Attr("dname", DataType::kString)});
  return MakeTable(s, {{I(10), S("eng")}, {I(30), S("hr")}});
}

TEST(RelationalFilterTest, Basic) {
  ASSERT_OK_AND_ASSIGN(TablePtr t,
                       relational::Filter(Employees(), *Gt(Col("salary"), Lit(65.0))));
  EXPECT_EQ(t->num_rows(), 3);
  ASSERT_OK_AND_ASSIGN(TablePtr none,
                       relational::Filter(Employees(), *Gt(Col("salary"), Lit(1e9))));
  EXPECT_EQ(none->num_rows(), 0);
}

TEST(RelationalProjectTest, SelectsAndErrors) {
  ASSERT_OK_AND_ASSIGN(TablePtr t, relational::Project(Employees(), {"salary", "id"}));
  EXPECT_EQ(t->schema()->field(0).name, "salary");
  EXPECT_FALSE(relational::Project(Employees(), {"zz"}).ok());
}

TEST(RelationalExtendTest, ChainedDefs) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr t,
      relational::Extend(Employees(), {{"x", Mul(Col("salary"), Lit(2.0))},
                                       {"y", Add(Col("x"), Lit(1.0))}}));
  EXPECT_EQ(t->At(0, 3), F(180.0));
  EXPECT_EQ(t->At(0, 4), F(181.0));
}

TEST(RelationalJoinTest, InnerMatchesAndSkipsNullKeys) {
  JoinOp op;
  op.type = JoinType::kInner;
  op.left_keys = {"dept"};
  op.right_keys = {"did"};
  ASSERT_OK_AND_ASSIGN(TablePtr t,
                       relational::HashJoin(Employees(), Departments(), op));
  EXPECT_EQ(t->num_rows(), 2);  // id 1 and 2 join eng; null dept drops
  EXPECT_EQ(t->schema()->FindField("did"), -1);
}

TEST(RelationalJoinTest, LeftJoinNullExtends) {
  JoinOp op;
  op.type = JoinType::kLeft;
  op.left_keys = {"dept"};
  op.right_keys = {"did"};
  ASSERT_OK_AND_ASSIGN(TablePtr t,
                       relational::HashJoin(Employees(), Departments(), op));
  EXPECT_EQ(t->num_rows(), 4);
  int dname = t->schema()->FindField("dname");
  int64_t nulls = 0;
  for (int64_t r = 0; r < t->num_rows(); ++r) nulls += t->At(r, dname).is_null();
  EXPECT_EQ(nulls, 2);  // dept 20 and the null dept
}

TEST(RelationalJoinTest, SemiAntiAndResidual) {
  JoinOp semi;
  semi.type = JoinType::kSemi;
  semi.left_keys = {"dept"};
  semi.right_keys = {"did"};
  ASSERT_OK_AND_ASSIGN(TablePtr s,
                       relational::HashJoin(Employees(), Departments(), semi));
  EXPECT_EQ(s->num_rows(), 2);

  JoinOp anti = semi;
  anti.type = JoinType::kAnti;
  ASSERT_OK_AND_ASSIGN(TablePtr a,
                       relational::HashJoin(Employees(), Departments(), anti));
  EXPECT_EQ(a->num_rows(), 2);

  JoinOp resid = semi;
  resid.type = JoinType::kInner;
  resid.residual = Gt(Col("salary"), Lit(80.0));
  ASSERT_OK_AND_ASSIGN(TablePtr r,
                       relational::HashJoin(Employees(), Departments(), resid));
  EXPECT_EQ(r->num_rows(), 1);  // only id 1 (salary 90)
}

TEST(RelationalJoinTest, CrossJoinViaEmptyKeys) {
  JoinOp op;
  op.residual = Lit(true);
  ASSERT_OK_AND_ASSIGN(TablePtr t,
                       relational::HashJoin(Employees(), Departments(), op));
  EXPECT_EQ(t->num_rows(), 8);
}

TEST(RelationalAggregateTest, GroupedSums) {
  AggregateOp op;
  op.group_by = {"dept"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("salary"), "total"},
             AggSpec{AggFunc::kCount, nullptr, "n"},
             AggSpec{AggFunc::kMin, Col("salary"), "lo"},
             AggSpec{AggFunc::kMax, Col("salary"), "hi"},
             AggSpec{AggFunc::kAvg, Col("salary"), "mean"}};
  ASSERT_OK_AND_ASSIGN(TablePtr t, algebra::LowerAggregate(Employees(), op));
  EXPECT_EQ(t->num_rows(), 3);  // 10, 20, null
  EXPECT_EQ(t->At(0, 0), I(10));
  EXPECT_EQ(t->At(0, 1), F(160.0));
  EXPECT_EQ(t->At(0, 2), I(2));
  EXPECT_EQ(t->At(0, 3), F(70.0));
  EXPECT_EQ(t->At(0, 4), F(90.0));
  EXPECT_EQ(t->At(0, 5), F(80.0));
}

TEST(RelationalAggregateTest, IntMinMaxStayExact) {
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64)});
  int64_t big = (int64_t{1} << 62) + 3;
  TablePtr t = MakeTable(s, {{I(big)}, {I(big - 1)}});
  AggregateOp op;
  op.aggs = {AggSpec{AggFunc::kMax, Col("x"), "hi"},
             AggSpec{AggFunc::kMin, Col("x"), "lo"}};
  ASSERT_OK_AND_ASSIGN(TablePtr out, algebra::LowerAggregate(t, op));
  EXPECT_EQ(out->At(0, 0), I(big));
  EXPECT_EQ(out->At(0, 1), I(big - 1));
}

TEST(RelationalSortTest, TypedComparatorsAndNulls) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr t, relational::Sort(Employees(), {{"dept", true}, {"salary", false}}));
  EXPECT_TRUE(t->At(0, 1).is_null());  // null dept first
  EXPECT_EQ(t->At(1, 2), F(90.0));
  EXPECT_EQ(t->At(2, 2), F(70.0));
}

TEST(RelationalDistinctTest, RemovesDuplicates) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("b", DataType::kString)});
  TablePtr t = MakeTable(s, {{I(1), S("x")}, {I(1), S("x")}, {I(1), S("y")},
                             {N(), S("x")}, {N(), S("x")}});
  ASSERT_OK_AND_ASSIGN(TablePtr d, relational::Distinct(t));
  EXPECT_EQ(d->num_rows(), 3);
}

TEST(RelationalUnionRenameLimitTest, Basics) {
  ASSERT_OK_AND_ASSIGN(TablePtr u, relational::Union(Employees(), Employees()));
  EXPECT_EQ(u->num_rows(), 8);
  ASSERT_OK_AND_ASSIGN(TablePtr r,
                       relational::Rename(Employees(), {{"salary", "pay"}}));
  EXPECT_GE(r->schema()->FindField("pay"), 0);
  ASSERT_OK_AND_ASSIGN(TablePtr l, relational::Limit(Employees(), 2, 1));
  EXPECT_EQ(l->num_rows(), 2);
  EXPECT_EQ(l->At(0, 0), I(2));
  EXPECT_FALSE(relational::Union(Employees(), Departments()).ok());
}

TEST(RelationalGroupKeysTest, TypedEqualityMatchesValueCompare) {
  // Grid of edge values per type; the typed comparison must agree with
  // Value::Compare == 0 on every pair (nulls equal each other, NaN equals
  // everything, -0.0 equals +0.0).
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<Value>> grids = {
      {N(), F(std::nan("")), F(-0.0), F(0.0), F(-inf), F(inf), F(1.5), F(-2.0)},
      {N(), I(0), I(1), I(-1), I(std::numeric_limits<int64_t>::min()),
       I(std::numeric_limits<int64_t>::max())},
      {N(), S(""), S("a"), S("b"), S("ab")},
      {N(), B(true), B(false)},
  };
  const std::vector<DataType> types = {DataType::kFloat64, DataType::kInt64,
                                       DataType::kString, DataType::kBool};
  for (size_t g = 0; g < grids.size(); ++g) {
    TablePtr t = MakeTable(MakeSchema({Field::Attr("c", types[g])}),
                           [&] {
                             std::vector<std::vector<Value>> rows;
                             for (const Value& v : grids[g]) rows.push_back({v});
                             return rows;
                           }());
    for (int64_t a = 0; a < t->num_rows(); ++a) {
      for (int64_t b = 0; b < t->num_rows(); ++b) {
        bool want = t->column(0).GetValue(a).Compare(t->column(0).GetValue(b)) == 0;
        EXPECT_EQ(relational::GroupKeysEqual(*t, a, b, {0}), want)
            << DataTypeName(types[g]) << " rows " << a << ", " << b;
      }
    }
  }
  // Multi-column keys: equal only when every column compares equal.
  TablePtr t = MakeTable(
      MakeSchema({Field::Attr("f", DataType::kFloat64),
                  Field::Attr("s", DataType::kString)}),
      {{F(-0.0), S("a")}, {F(0.0), S("a")}, {F(0.0), S("b")}, {N(), S("a")}});
  EXPECT_TRUE(relational::GroupKeysEqual(*t, 0, 1, {0, 1}));
  EXPECT_FALSE(relational::GroupKeysEqual(*t, 1, 2, {0, 1}));
  EXPECT_FALSE(relational::GroupKeysEqual(*t, 0, 3, {0, 1}));
  EXPECT_TRUE(relational::GroupKeysEqual(*t, 0, 2, {0}));
}

TEST(RelationalHashTest, EqualRowsHashEqual) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("b", DataType::kString)});
  TablePtr t = MakeTable(s, {{I(1), S("x")}, {I(1), S("x")}, {I(2), S("x")}});
  ASSERT_OK_AND_ASSIGN(auto hashes, relational::HashRows(*t, {0, 1}));
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_NE(hashes[0], hashes[2]);
}

// ---------------------------------------------------------------------------
// Differential testing: the engine must agree with the reference executor on
// randomized tables across a grid of plan shapes.
// ---------------------------------------------------------------------------

class RelationalDifferentialTest : public ::testing::TestWithParam<int> {};

TablePtr RandomTable(Rng* rng, int64_t rows) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64),
                            Field::Attr("tag", DataType::kString)});
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    Value k = rng->NextBool(0.05) ? N() : I(rng->NextInt(0, 20));
    Value v = rng->NextBool(0.05) ? N() : F(rng->NextDouble(-100, 100));
    Value tag = S(std::string(1, static_cast<char>('a' + rng->NextBounded(4))));
    EXPECT_OK(b.AppendRow({k, v, tag}));
  }
  auto r = b.Finish();
  EXPECT_OK(r.status());
  return r.ValueOrDie();
}

TEST_P(RelationalDifferentialTest, AgreesWithReferenceExecutor) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  InMemoryCatalog catalog;
  TablePtr left = RandomTable(&rng, 200);
  TablePtr right = RandomTable(&rng, 150);
  ASSERT_OK(catalog.Put("L", Dataset(left)));
  ASSERT_OK(catalog.Put("R", Dataset(right)));
  ReferenceExecutor ref(&catalog);

  auto check = [&](const PlanPtr& plan, const TablePtr& engine_result) {
    ASSERT_OK_AND_ASSIGN(Dataset want, ref.Execute(*plan));
    ASSERT_OK_AND_ASSIGN(TablePtr want_table, want.AsTable());
    EXPECT_TRUE(engine_result->EqualsUnordered(*want_table))
        << plan->ToString() << "engine rows=" << engine_result->num_rows()
        << " reference rows=" << want_table->num_rows();
  };

  // Filter.
  ExprPtr pred = And(Gt(Col("v"), Lit(0.0)), Lt(Col("k"), Lit(15)));
  ASSERT_OK_AND_ASSIGN(TablePtr f, relational::Filter(left, *pred));
  check(Plan::Select(Plan::Scan("L"), pred), f);

  // Joins of every type.
  for (JoinType jt : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                      JoinType::kAnti}) {
    JoinOp op;
    op.type = jt;
    op.left_keys = {"k"};
    op.right_keys = {"k"};
    ASSERT_OK_AND_ASSIGN(
        TablePtr renamed,
        relational::Rename(right, {{"v", "rv"}, {"tag", "rtag"}}));
    ASSERT_OK_AND_ASSIGN(TablePtr j, relational::HashJoin(left, renamed, op));
    PlanPtr rplan = Plan::Rename(Plan::Scan("R"), {{"v", "rv"}, {"tag", "rtag"}});
    check(Plan::Join(Plan::Scan("L"), rplan, jt, {"k"}, {"k"}), j);
  }

  // Aggregation.
  AggregateOp agg;
  agg.group_by = {"k", "tag"};
  agg.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
              AggSpec{AggFunc::kCount, nullptr, "n"},
              AggSpec{AggFunc::kAvg, Col("v"), "av"}};
  ASSERT_OK_AND_ASSIGN(TablePtr a, algebra::LowerAggregate(left, agg));
  // Compare sums with tolerance by sorting both sides identically instead of
  // exact row equality (float addition order differs).
  ASSERT_OK_AND_ASSIGN(Dataset want, ref.Execute(*Plan::Aggregate(
                                         Plan::Scan("L"), agg.group_by, agg.aggs)));
  ASSERT_OK_AND_ASSIGN(TablePtr want_t, want.AsTable());
  ASSERT_OK_AND_ASSIGN(TablePtr a_sorted,
                       relational::Sort(a, {{"k", true}, {"tag", true}}));
  ASSERT_OK_AND_ASSIGN(TablePtr w_sorted,
                       relational::Sort(want_t, {{"k", true}, {"tag", true}}));
  ASSERT_EQ(a_sorted->num_rows(), w_sorted->num_rows());
  for (int64_t r = 0; r < a_sorted->num_rows(); ++r) {
    EXPECT_EQ(a_sorted->At(r, 0), w_sorted->At(r, 0));
    EXPECT_EQ(a_sorted->At(r, 1), w_sorted->At(r, 1));
    if (!a_sorted->At(r, 2).is_null()) {
      EXPECT_NEAR(a_sorted->At(r, 2).AsDouble(), w_sorted->At(r, 2).AsDouble(), 1e-6);
    }
    EXPECT_EQ(a_sorted->At(r, 3), w_sorted->At(r, 3));
  }

  // Distinct.
  ASSERT_OK_AND_ASSIGN(TablePtr proj, relational::Project(left, {"k", "tag"}));
  ASSERT_OK_AND_ASSIGN(TablePtr d, relational::Distinct(proj));
  check(Plan::Distinct(Plan::Project(Plan::Scan("L"), {"k", "tag"})), d);

  // Sort: fully deterministic (ordered compare).
  ASSERT_OK_AND_ASSIGN(TablePtr sorted,
                       relational::Sort(left, {{"k", true}, {"v", false}}));
  ASSERT_OK_AND_ASSIGN(
      Dataset want_sorted,
      ref.Execute(*Plan::Sort(Plan::Scan("L"), {{"k", true}, {"v", false}})));
  ASSERT_OK_AND_ASSIGN(TablePtr ws, want_sorted.AsTable());
  EXPECT_TRUE(sorted->Equals(*ws));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationalDifferentialTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Fused morsel pipelines (optimizer/fusion.h + relational/fused.h).
// ---------------------------------------------------------------------------

TablePtr SalesTable(int64_t rows) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("g", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64),
                            Field::Attr("tag", DataType::kString)});
  Rng rng(99);
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row = {I(rng.NextInt(0, 1000)), I(rng.NextInt(0, 7)),
                              F(static_cast<double>(rng.NextInt(-50, 50))),
                              S(std::string(1, static_cast<char>('a' + rng.NextBounded(4))))};
    if (rng.NextBool(0.1)) row[rng.NextBounded(4)] = N();
    EXPECT_OK(b.AppendRow(row));
  }
  return b.Finish().ValueOrDie();
}

// Applies the matched chain one operator at a time — the baseline the fused
// loop must reproduce byte-for-byte.
Result<TablePtr> ApplyUnfused(const std::vector<const Plan*>& ops, TablePtr t) {
  for (const Plan* op : ops) {
    switch (op->kind()) {
      case OpKind::kSelect: {
        NEXUS_ASSIGN_OR_RETURN(
            t, relational::Filter(t, *op->As<SelectOp>().predicate));
        break;
      }
      case OpKind::kProject: {
        NEXUS_ASSIGN_OR_RETURN(
            t, relational::Project(t, op->As<ProjectOp>().columns));
        break;
      }
      case OpKind::kExtend: {
        NEXUS_ASSIGN_OR_RETURN(t,
                               relational::Extend(t, op->As<ExtendOp>().defs));
        break;
      }
      case OpKind::kAggregate: {
        NEXUS_ASSIGN_OR_RETURN(
            t, algebra::LowerAggregate(t, op->As<AggregateOp>()));
        break;
      }
      default:
        return Status::Internal("bad chain op");
    }
  }
  return t;
}

void ExpectFusedMatchesUnfused(const PlanPtr& root, const TablePtr& t,
                               size_t want_ops) {
  std::optional<FusedChain> chain = MatchFusedChain(*root);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->ops.size(), want_ops);
  ASSERT_OK_AND_ASSIGN(
      relational::FusedPipeline fp,
      relational::CompileFusedPipeline(chain->ops, t->schema()));
  ASSERT_OK_AND_ASSIGN(TablePtr want, ApplyUnfused(chain->ops, t));
  struct Guard {
    int saved = GetThreadCount();
    ~Guard() { SetThreadCount(saved); }
  } guard;
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ASSERT_OK_AND_ASSIGN(TablePtr fused, relational::ExecuteFused(fp, t));
    EXPECT_TRUE(fused->Equals(*want)) << "threads=" << threads;
    EXPECT_TRUE(fused->schema()->Equals(*want->schema()))
        << "threads=" << threads;
  }
}

TEST(FusedPipelineTest, FilterExtendProjectMatchesUnfused) {
  TablePtr t = SalesTable(40000);  // multiple morsels at kMorselRows = 16k
  PlanPtr root = Plan::Project(
      Plan::Extend(
          Plan::Select(Plan::Values(Dataset(t)), Gt(Col("k"), Lit(200))),
          {{"z", Add(Mul(Col("k"), Lit(3)), Col("g"))},
           {"w", Func("if", {Func("is_null", {Col("v")}), Lit(0.0), Col("v")})}}),
      {"z", "w", "tag"});
  ExpectFusedMatchesUnfused(root, t, 3);
}

TEST(FusedPipelineTest, ChainEndingInAggregateMatchesUnfused) {
  TablePtr t = SalesTable(40000);
  PlanPtr root = Plan::Aggregate(
      Plan::Extend(
          Plan::Select(Plan::Values(Dataset(t)),
                       And(Gt(Col("k"), Lit(100)), Lt(Col("k"), Lit(900)))),
          {{"v2", Mul(Col("v"), Col("v"))}}),
      {"g"},
      {AggSpec{AggFunc::kSum, Col("v2"), "ss"},
       AggSpec{AggFunc::kCount, nullptr, "n"},
       AggSpec{AggFunc::kMin, Col("k"), "lo"},
       AggSpec{AggFunc::kAvg, Col("v"), "mean"}});
  ExpectFusedMatchesUnfused(root, t, 3);
}

// Two filters: the first selects each block's lanes, the second narrows
// them, with null predicate lanes on both and blocks spanning morsels.
TEST(FusedPipelineTest, SecondFilterNarrowsTheSelection) {
  TablePtr t = SalesTable(40000);
  PlanPtr root = Plan::Project(
      Plan::Select(
          Plan::Select(Plan::Values(Dataset(t)), Gt(Col("k"), Lit(300))),
          Lt(Col("v"), Lit(20.0))),
      {"k", "v", "tag"});
  ExpectFusedMatchesUnfused(root, t, 3);
}

TEST(FusedPipelineTest, ExtendChainsSeeEarlierDefinitions) {
  TablePtr t = SalesTable(5000);
  // The second Extend references the first's output; lowering must inline
  // the definition, and projecting it away afterwards must not disturb it.
  PlanPtr root = Plan::Project(
      Plan::Extend(
          Plan::Extend(Plan::Values(Dataset(t)), {{"d", Add(Col("k"), Col("g"))}}),
          {{"d2", Mul(Col("d"), Col("d"))}}),
      {"d2", "k"});
  ExpectFusedMatchesUnfused(root, t, 3);
}

TEST(FusedPipelineTest, RefusesWhatTheProgramCannotCompile) {
  TablePtr t = SalesTable(64);
  // String→int parse cast is runtime-fallible: bytecode refuses, so fusion
  // must refuse too (the caller falls back to per-operator execution).
  PlanPtr root = Plan::Project(
      Plan::Extend(Plan::Select(Plan::Values(Dataset(t)), Gt(Col("k"), Lit(1))),
                   {{"p", Cast(DataType::kInt64, Col("tag"))}}),
      {"p"});
  std::optional<FusedChain> chain = MatchFusedChain(*root);
  ASSERT_TRUE(chain.has_value());
  EXPECT_TRUE(relational::CompileFusedPipeline(chain->ops, t->schema())
                  .status()
                  .IsUnsupported());
}

TEST(FusedPipelineTest, SingleOperatorDoesNotMatch) {
  TablePtr t = SalesTable(16);
  PlanPtr one = Plan::Select(Plan::Values(Dataset(t)), Gt(Col("k"), Lit(1)));
  EXPECT_FALSE(MatchFusedChain(*one).has_value());
  EXPECT_FALSE(MatchFusedChain(*Plan::Values(Dataset(t))).has_value());
}

}  // namespace
}  // namespace nexus
