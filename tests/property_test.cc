// Property tests over randomly generated plans: the heavy invariants of the
// framework, checked on hundreds of machine-built pipelines rather than
// hand-picked cases.
//
//   P1  wire round trip:       Parse(Serialize(p)) ≡ p  (structural)
//   P2  optimizer equivalence: Exec(Optimize(p)) ≡ Exec(p)  (schema + value)
//   P3  provider agreement:    every claiming provider ≡ reference
//   P4  federation agreement:  coordinator over a split cluster ≡ local
//   P5  parallel determinism:  Exec at threads ∈ {2,4,8} byte-identical to
//                              threads = 1 (morsel scheduler contract)
//   P6  cost-model soundness:  Optimize under arbitrary (even forged)
//                              statistics ≡ Exec(p) — stats steer join
//                              order, never results
//   P7  compile equivalence:   bytecode VM ≡ boxed interpreter ≡ row
//                              interpreter on random expressions (nulls,
//                              3VL, conditionals, strings), byte-identical
//   P8  algebra equivalence:   random associative-array programs on the
//                              semi-ring kernels ≡ direct scalar folds, for
//                              every registered ring, at 1 and 4 threads
//   P9  out-of-core identity:  join / aggregate / semi-ring reduce with
//                              spilling forced under randomized budgets
//                              (including ones forcing recursive
//                              repartition) ≡ the in-memory result,
//                              byte-identical at 1 and 4 threads
//   P10 incremental identity:  registered views refreshed over random
//                              append batches ≡ full recompute of the same
//                              plan, byte-identical at 1 and 4 threads —
//                              including plans the delta rewrite refuses
//                              (refuse-and-fallback must also be identical)
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "algebra/kernels.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "core/serialize.h"
#include "exec/incremental/view.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "expr/bytecode.h"
#include "expr/eval.h"
#include "federation/coordinator.h"
#include "optimizer/optimizer.h"
#include "relational/engine.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::S;

// ---------------------------------------------------------------------------
// Random workload + plan generation.
// ---------------------------------------------------------------------------

TablePtr RandomBaseTable(Rng* rng, int64_t rows) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("g", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64),
                            Field::Attr("tag", DataType::kString)});
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    // Integer-valued floats keep sums order-independent (exact comparison).
    EXPECT_OK(b.AppendRow(
        {I(rng->NextInt(0, 12)), I(rng->NextInt(0, 4)),
         F(static_cast<double>(rng->NextInt(-20, 20))),
         S(std::string(1, static_cast<char>('a' + rng->NextBounded(3))))}));
  }
  return b.Finish().ValueOrDie();
}

TablePtr RandomGridTable(Rng* rng, int64_t extent) {
  SchemaPtr s = MakeSchema({Field::Dim("x"), Field::Dim("y"),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t x = 0; x < extent; ++x) {
    for (int64_t y = 0; y < extent; ++y) {
      if (rng->NextBool(0.3)) continue;
      EXPECT_OK(b.AppendRow(
          {I(x), I(y), F(static_cast<double>(rng->NextInt(-9, 9)))}));
    }
  }
  return b.Finish().ValueOrDie();
}

// Random scalar boolean predicate over {k, g, v}.
ExprPtr RandomPredicate(Rng* rng) {
  switch (rng->NextBounded(5)) {
    case 0:
      return Gt(Col("v"), Lit(static_cast<double>(rng->NextInt(-10, 10))));
    case 1:
      return Eq(Col("g"), Lit(rng->NextInt(0, 4)));
    case 2:
      return And(Ge(Col("k"), Lit(rng->NextInt(0, 6))),
                 Lt(Col("v"), Lit(static_cast<double>(rng->NextInt(0, 20)))));
    case 3:
      return Or(Eq(Col("tag"), Lit("a")), Gt(Col("v"), Lit(0.0)));
    default:
      return Ne(Mod(Col("k"), Lit(3)), Lit(0));
  }
}

// Builds a random relational pipeline over table "base" (+ join "side").
// The generator only produces well-typed stages, tracked via a live schema.
PlanPtr RandomRelationalPlan(Rng* rng, const Catalog& catalog, int steps) {
  PlanPtr p = Plan::Scan("base");
  int extend_id = 0;
  for (int s = 0; s < steps; ++s) {
    SchemaPtr schema = InferSchema(*p, catalog).ValueOrDie();
    bool has_v = schema->FindField("v") >= 0;
    bool has_k = schema->FindField("k") >= 0;
    switch (rng->NextBounded(7)) {
      case 0:
        if (has_v && has_k && schema->FindField("g") >= 0 &&
            schema->FindField("tag") >= 0) {
          p = Plan::Select(p, RandomPredicate(rng));
        }
        break;
      case 1:
        if (has_v) {
          p = Plan::Extend(
              p, {{StrCat("e", extend_id++), Add(Col("v"), Lit(1.0))}});
        }
        break;
      case 2: {
        SortKey key{schema->field(static_cast<int>(
                                      rng->NextBounded(static_cast<uint64_t>(
                                          schema->num_fields()))))
                        .name,
                    rng->NextBool()};
        p = Plan::Sort(p, {key});
        break;
      }
      case 3:
        p = Plan::Distinct(p);
        break;
      case 4:
        if (has_k && has_v && rng->NextBool(0.5)) {
          p = Plan::Aggregate(p, {"k"},
                              {AggSpec{AggFunc::kSum, Col("v"), StrCat("s", s)},
                               AggSpec{AggFunc::kCount, nullptr, StrCat("n", s)}});
        }
        break;
      case 5:
        // Joining "side" twice would duplicate its sv column.
        if (has_k && schema->FindField("sv") < 0 && rng->NextBool(0.5)) {
          p = Plan::Join(p, Plan::Scan("side"), JoinType::kInner, {"k"},
                         {"sk"});
        }
        break;
      default:
        p = Plan::Limit(p, rng->NextInt(5, 50), rng->NextInt(0, 3));
        break;
    }
  }
  return p;
}

// Random dimension-aware pipeline over "grid".
PlanPtr RandomArrayPlan(Rng* rng, int steps) {
  PlanPtr p = Plan::Scan("grid");
  for (int s = 0; s < steps; ++s) {
    switch (rng->NextBounded(5)) {
      case 0:
        p = Plan::Slice(p, {{"x", rng->NextInt(-2, 3), rng->NextInt(6, 12)}});
        break;
      case 1:
        p = Plan::Shift(p, {{"x", rng->NextInt(-4, 4)}, {"y", rng->NextInt(-4, 4)}});
        break;
      case 2:
        p = Plan::Regrid(p, {{"x", rng->NextInt(1, 3)}, {"y", rng->NextInt(1, 3)}},
                         rng->NextBool() ? AggFunc::kSum : AggFunc::kMax);
        break;
      case 3:
        p = Plan::Transpose(p, {"y", "x"});
        break;
      default:
        p = Plan::Select(p, Gt(Col("v"), Lit(static_cast<double>(rng->NextInt(-8, 4)))));
        break;
    }
  }
  return p;
}

class PlanFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(static_cast<uint64_t>(GetParam()) * 6151 + 3);
    base_ = RandomBaseTable(rng_.get(), 150);
    SchemaPtr side_schema = MakeSchema({Field::Attr("sk", DataType::kInt64),
                                        Field::Attr("sv", DataType::kFloat64)});
    TableBuilder sb(side_schema);
    for (int64_t i = 0; i < 13; ++i) {
      ASSERT_OK(sb.AppendRow({I(i), F(static_cast<double>(i * 2))}));
    }
    side_ = sb.Finish().ValueOrDie();
    grid_ = RandomGridTable(rng_.get(), 10);
    ASSERT_OK(catalog_.Put("base", Dataset(base_)));
    ASSERT_OK(catalog_.Put("side", Dataset(side_)));
    ASSERT_OK(catalog_.Put("grid", Dataset(grid_)));
  }

  std::unique_ptr<Rng> rng_;
  TablePtr base_, side_, grid_;
  InMemoryCatalog catalog_;
};

TEST_P(PlanFuzzTest, WireRoundTripIsIdentity) {
  for (int trial = 0; trial < 8; ++trial) {
    PlanPtr p = trial % 2 == 0 ? RandomRelationalPlan(rng_.get(), catalog_, 5)
                               : RandomArrayPlan(rng_.get(), 5);
    std::string wire = SerializePlan(*p);
    ASSERT_OK_AND_ASSIGN(PlanPtr back, ParsePlan(wire));
    EXPECT_TRUE(p->Equals(*back)) << wire;
    EXPECT_EQ(SerializePlan(*back), wire);
  }
}

TEST_P(PlanFuzzTest, OptimizerPreservesSemantics) {
  ReferenceExecutor exec(&catalog_);
  for (int trial = 0; trial < 6; ++trial) {
    PlanPtr p = trial % 2 == 0 ? RandomRelationalPlan(rng_.get(), catalog_, 5)
                               : RandomArrayPlan(rng_.get(), 4);
    ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog_));
    ASSERT_OK_AND_ASSIGN(SchemaPtr s1, InferSchema(*p, catalog_));
    ASSERT_OK_AND_ASSIGN(SchemaPtr s2, InferSchema(*optimized, catalog_));
    ASSERT_TRUE(s1->Equals(*s2))
        << "schema changed:\n" << p->ToString() << "->\n" << optimized->ToString();
    ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*p));
    ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*optimized));
    EXPECT_TRUE(got.LogicallyEquals(want))
        << p->ToString() << "->\n" << optimized->ToString();
  }
}

TEST_P(PlanFuzzTest, CostBasedPlansAreValueEquivalentUnderAnyStats) {
  // P6: randomized chain joins × randomized statistics distortions. The
  // DP enumerator may pick any order the (possibly forged) stats favor;
  // the rows coming back must be exactly the written plan's rows.
  Rng& rng = *rng_;
  for (int trial = 0; trial < 4; ++trial) {
    InMemoryCatalog catalog;
    int n_rels = 3 + static_cast<int>(rng.NextBounded(2));
    for (int r = 0; r < n_rels; ++r) {
      // rel_r carries join keys c{r-1} (into the previous relation) and
      // c{r} (into the next), plus a payload column.
      std::vector<Field> fields;
      if (r > 0) fields.push_back(Field::Attr(StrCat("c", r - 1), DataType::kInt64));
      if (r + 1 < n_rels) fields.push_back(Field::Attr(StrCat("c", r), DataType::kInt64));
      fields.push_back(Field::Attr(StrCat("p", r), DataType::kInt64));
      TableBuilder b(MakeSchema(fields));
      int64_t rows = rng.NextInt(5, 120);
      int64_t domain = rng.NextInt(2, 40);
      for (int64_t i = 0; i < rows; ++i) {
        std::vector<Value> row;
        if (r > 0) row.push_back(I(rng.NextInt(0, domain - 1)));
        if (r + 1 < n_rels) row.push_back(I(rng.NextInt(0, domain - 1)));
        row.push_back(I(i));
        ASSERT_OK(b.AppendRow(row));
      }
      ASSERT_OK(catalog.Put(StrCat("rel", r), Dataset(b.Finish().ValueOrDie())));
    }
    // Written order: the plain left-deep chain.
    PlanPtr p = Plan::Scan("rel0");
    for (int r = 1; r < n_rels; ++r) {
      std::string key = StrCat("c", r - 1);
      p = Plan::Join(p, Plan::Scan(StrCat("rel", r)), JoinType::kInner, {key},
                     {key});
    }
    // Distort the statistics: scale cardinalities and NDVs by up to 100x
    // either way, sometimes drop ranges entirely.
    for (int r = 0; r < n_rels; ++r) {
      if (rng.NextBool()) continue;
      ASSERT_OK_AND_ASSIGN(TableStats stats, catalog.GetStats(StrCat("rel", r)));
      double factor = std::pow(10.0, rng.NextDouble(-2.0, 2.0));
      stats.row_count = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(stats.row_count) * factor));
      for (auto& [name, cs] : stats.columns) {
        cs.distinct = std::max(1.0, cs.distinct * factor);
        if (rng.NextBool()) cs.has_minmax = false;
      }
      ASSERT_OK(catalog.OverrideStats(StrCat("rel", r), stats));
    }
    ASSERT_OK_AND_ASSIGN(PlanPtr optimized, Optimize(p, catalog));
    ASSERT_OK_AND_ASSIGN(SchemaPtr s1, InferSchema(*p, catalog));
    ASSERT_OK_AND_ASSIGN(SchemaPtr s2, InferSchema(*optimized, catalog));
    ASSERT_TRUE(s1->Equals(*s2))
        << "schema changed:\n" << p->ToString() << "->\n" << optimized->ToString();
    ReferenceExecutor exec(&catalog);
    ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*p));
    ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*optimized));
    EXPECT_TRUE(got.LogicallyEquals(want))
        << p->ToString() << "->\n" << optimized->ToString();
  }
}

TEST_P(PlanFuzzTest, ProvidersAgreeOnClaimedPlans) {
  std::vector<ProviderPtr> providers = {MakeReferenceProvider(),
                                        MakeRelationalProvider(),
                                        MakeArrayProvider()};
  for (const ProviderPtr& p : providers) {
    ASSERT_OK(p->catalog()->Put("base", Dataset(base_)));
    ASSERT_OK(p->catalog()->Put("side", Dataset(side_)));
    ASSERT_OK(p->catalog()->Put("grid", Dataset(grid_)));
  }
  for (int trial = 0; trial < 6; ++trial) {
    bool dimensioned = trial % 2 != 0;
    PlanPtr plan = dimensioned ? RandomArrayPlan(rng_.get(), 4)
                               : RandomRelationalPlan(rng_.get(), catalog_, 4);
    // Sort-sensitive plans may legally differ in row order across engines;
    // compare as multisets (LogicallyEquals is unordered).
    ASSERT_OK_AND_ASSIGN(Dataset want, providers[0]->Execute(*plan));
    for (size_t i = 1; i < providers.size(); ++i) {
      if (!providers[i]->ClaimsTree(*plan)) continue;
      // The array engine needs dimensioned inputs; the planner enforces
      // this via ServerSuits — mirror that here.
      if (providers[i]->name() == "arraydb" && !dimensioned) continue;
      ASSERT_OK_AND_ASSIGN(Dataset got, providers[i]->Execute(*plan));
      EXPECT_TRUE(got.LogicallyEquals(want))
          << providers[i]->name() << " diverged on\n" << plan->ToString();
    }
  }
}

TEST_P(PlanFuzzTest, FederatedExecutionMatchesLocal) {
  Cluster cluster;
  ASSERT_OK(cluster.AddServer("relstore", MakeRelationalProvider()));
  ASSERT_OK(cluster.AddServer("arraydb", MakeArrayProvider()));
  ASSERT_OK(cluster.AddServer("reference", MakeReferenceProvider()));
  // Split the data across servers.
  ASSERT_OK(cluster.PutData("relstore", "base", Dataset(base_)));
  ASSERT_OK(cluster.PutData("relstore", "side", Dataset(side_)));
  ASSERT_OK(cluster.PutData("arraydb", "grid", Dataset(grid_)));
  Coordinator coord(&cluster);
  ReferenceExecutor local(&catalog_);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr plan = trial % 2 == 0
                       ? RandomRelationalPlan(rng_.get(), catalog_, 4)
                       : RandomArrayPlan(rng_.get(), 4);
    // Limit after an unordered boundary is representation-dependent; the
    // generator may emit Sort → Limit which is stable, but a bare Limit
    // over differently-ordered intermediates legitimately differs between
    // a federated plan (which cuts the tree into fragments) and local
    // execution. Skip plans whose result depends on physical order.
    if (plan->ToString().find("limit") != std::string::npos) continue;
    ASSERT_OK_AND_ASSIGN(Dataset want, local.Execute(*plan));
    ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(plan));
    EXPECT_TRUE(got.LogicallyEquals(want)) << plan->ToString();
  }
}

TEST_P(PlanFuzzTest, ParallelExecutionIsByteIdentical) {
  // Stronger than LogicallyEquals: the morsel scheduler's determinism
  // contract promises byte-identical results (row order, chunk layout,
  // float sums) for any thread budget.
  struct Guard {
    int saved = GetThreadCount();
    ~Guard() { SetThreadCount(saved); }
  } guard;
  ReferenceExecutor exec(&catalog_);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr plan = trial % 2 == 0
                       ? RandomRelationalPlan(rng_.get(), catalog_, 5)
                       : RandomArrayPlan(rng_.get(), 4);
    SetThreadCount(1);
    ASSERT_OK_AND_ASSIGN(Dataset want, exec.Execute(*plan));
    for (int threads : {2, 4, 8}) {
      SetThreadCount(threads);
      ASSERT_OK_AND_ASSIGN(Dataset got, exec.Execute(*plan));
      ASSERT_EQ(got.kind(), want.kind()) << plan->ToString();
      if (want.is_table()) {
        EXPECT_TRUE(got.table()->Equals(*want.table()))
            << "threads=" << threads << "\n" << plan->ToString();
      } else {
        EXPECT_TRUE(got.array()->Equals(*want.array()))
            << "threads=" << threads << "\n" << plan->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanFuzzTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Structural invariants of the fused model.
// ---------------------------------------------------------------------------

class ReboxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReboxPropertyTest, TableArrayRoundTripIsLossless) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  TablePtr t = RandomGridTable(&rng, 6 + GetParam());
  for (int64_t chunk : {1, 3, 7, 64}) {
    ASSERT_OK_AND_ASSIGN(auto arr,
                         NDArray::FromTable(*t, {"x", "y"}, {chunk, chunk}));
    ASSERT_OK_AND_ASSIGN(TablePtr back, arr->ToTable());
    EXPECT_TRUE(Dataset(t).LogicallyEquals(Dataset(back)))
        << "chunk=" << chunk;
    EXPECT_EQ(arr->NumCellsOccupied(), t->num_rows());
  }
}

TEST_P(ReboxPropertyTest, SerializedArrayKeepsGeometryAndCells) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 2);
  TablePtr t = RandomGridTable(&rng, 7);
  if (t->num_rows() == 0) return;
  ASSERT_OK_AND_ASSIGN(NDArrayPtr arr, Dataset(t).AsArray(5));
  ASSERT_OK_AND_ASSIGN(Dataset back, ParseDataset(SerializeDataset(Dataset(arr))));
  ASSERT_TRUE(back.is_array());
  EXPECT_TRUE(back.array()->Equals(*arr));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReboxPropertyTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// P7: the bytecode VM is byte-identical to the boxed interpreter, and both to
// the row interpreter on every row, for random typed expression trees over
// nullable data.
// ---------------------------------------------------------------------------

TablePtr RandomNullableTable(Rng* rng, int64_t rows) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("b", DataType::kFloat64),
                            Field::Attr("s", DataType::kString),
                            Field::Attr("flag", DataType::kBool)});
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row = {
        Value::Int64(rng->NextInt(-6, 6)),
        Value::Float64(static_cast<double>(rng->NextInt(-40, 40)) / 8.0),
        Value::String(std::string(rng->NextBounded(3) + 1,
                                  static_cast<char>('A' + rng->NextBounded(26)))),
        Value::Bool(rng->NextBool())};
    if (rng->NextBool(0.15)) row[rng->NextBounded(4)] = Value::Null();
    EXPECT_OK(b.AppendRow(row));
  }
  return b.Finish().ValueOrDie();
}

// Builds a random expression of the requested static type. Stays inside the
// NaN-free, non-overflowing envelope: what it generates exercises nulls,
// Kleene logic, conditionals, strings, casts, and math builtins.
ExprPtr RandomTypedExpr(Rng* rng, DataType want, int depth);

ExprPtr RandomIntExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.3)) {
    return rng->NextBool() ? Col("a") : Lit(rng->NextInt(-4, 4));
  }
  switch (rng->NextBounded(7)) {
    case 0:
      return Add(RandomIntExpr(rng, depth - 1), RandomIntExpr(rng, depth - 1));
    case 1:
      return Sub(RandomIntExpr(rng, depth - 1), RandomIntExpr(rng, depth - 1));
    case 2:
      return Mod(RandomIntExpr(rng, depth - 1), RandomIntExpr(rng, depth - 1));
    case 3:
      return Neg(RandomIntExpr(rng, depth - 1));
    case 4:
      return Func("coalesce",
                  {RandomIntExpr(rng, depth - 1), RandomIntExpr(rng, depth - 1)});
    case 5:
      return Func("if", {RandomTypedExpr(rng, DataType::kBool, depth - 1),
                         RandomIntExpr(rng, depth - 1),
                         RandomIntExpr(rng, depth - 1)});
    default:
      return Func("length", {RandomTypedExpr(rng, DataType::kString, depth - 1)});
  }
}

ExprPtr RandomDoubleExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.3)) {
    return rng->NextBool() ? Col("b") : Lit(rng->NextDouble(-3.0, 3.0));
  }
  switch (rng->NextBounded(7)) {
    case 0:
      return Add(RandomDoubleExpr(rng, depth - 1),
                 RandomDoubleExpr(rng, depth - 1));
    case 1:
      return Mul(RandomDoubleExpr(rng, depth - 1),
                 RandomDoubleExpr(rng, depth - 1));
    case 2:
      return Div(RandomDoubleExpr(rng, depth - 1),
                 RandomDoubleExpr(rng, depth - 1));  // /0 → null on all paths
    case 3:
      return Func("sqrt", {RandomDoubleExpr(rng, depth - 1)});  // <0 → null
    case 4:
      return Func("abs", {RandomDoubleExpr(rng, depth - 1)});
    case 5:
      return Func("min", {RandomDoubleExpr(rng, depth - 1),
                          RandomDoubleExpr(rng, depth - 1)});
    default:
      return Func("if", {RandomTypedExpr(rng, DataType::kBool, depth - 1),
                         RandomDoubleExpr(rng, depth - 1),
                         RandomDoubleExpr(rng, depth - 1)});
  }
}

ExprPtr RandomStringExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.4)) {
    return rng->NextBool() ? Col("s") : Lit(std::string(1, static_cast<char>(
                                                'a' + rng->NextBounded(26))));
  }
  switch (rng->NextBounded(5)) {
    case 0:
      return Add(RandomStringExpr(rng, depth - 1),
                 RandomStringExpr(rng, depth - 1));
    case 1:
      return Func("lower", {RandomStringExpr(rng, depth - 1)});
    case 2:
      return Func("upper", {RandomStringExpr(rng, depth - 1)});
    case 3:
      return Func("substr", {RandomStringExpr(rng, depth - 1),
                             Lit(rng->NextInt(0, 2)), Lit(rng->NextInt(0, 3))});
    default:
      return Cast(DataType::kString, RandomIntExpr(rng, depth - 1));
  }
}

ExprPtr RandomBoolExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.3)) {
    return rng->NextBool() ? Col("flag") : Lit(rng->NextBool());
  }
  switch (rng->NextBounded(7)) {
    case 0:
      return And(RandomBoolExpr(rng, depth - 1), RandomBoolExpr(rng, depth - 1));
    case 1:
      return Or(RandomBoolExpr(rng, depth - 1), RandomBoolExpr(rng, depth - 1));
    case 2:
      return Not(RandomBoolExpr(rng, depth - 1));
    case 3:
      return Lt(RandomIntExpr(rng, depth - 1), RandomIntExpr(rng, depth - 1));
    case 4:
      return Eq(RandomDoubleExpr(rng, depth - 1),
                RandomDoubleExpr(rng, depth - 1));
    case 5:
      return Ge(RandomStringExpr(rng, depth - 1),
                RandomStringExpr(rng, depth - 1));
    default:
      return Func("is_null", {RandomIntExpr(rng, depth - 1)});
  }
}

ExprPtr RandomTypedExpr(Rng* rng, DataType want, int depth) {
  switch (want) {
    case DataType::kInt64:
      return RandomIntExpr(rng, depth);
    case DataType::kFloat64:
      return RandomDoubleExpr(rng, depth);
    case DataType::kString:
      return RandomStringExpr(rng, depth);
    default:
      return RandomBoolExpr(rng, depth);
  }
}

class ExprCompileTest : public ::testing::TestWithParam<int> {};

TEST_P(ExprCompileTest, CompiledAndInterpretedAreByteIdentical) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  TablePtr t = RandomNullableTable(&rng, 160);
  const DataType kTypes[] = {DataType::kInt64, DataType::kFloat64,
                             DataType::kString, DataType::kBool};
  for (int trial = 0; trial < 25; ++trial) {
    ExprPtr e = RandomTypedExpr(&rng, kTypes[trial % 4], 4);
    if (!InferExprType(*e, *t->schema()).ok()) continue;
    ASSERT_OK_AND_ASSIGN(Column interp, EvalExprInterpreted(*e, *t));
    ASSERT_OK_AND_ASSIGN(Column compiled, EvalExprVector(*e, *t));
    EXPECT_TRUE(compiled.Equals(interp)) << e->ToString();
    // Check the VM against the row interpreter (ground truth) on every row.
    ASSERT_OK_AND_ASSIGN(DataType out_t, InferExprType(*e, *t->schema()));
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      ASSERT_OK_AND_ASSIGN(Value row_v,
                           EvalExprRow(*e, *t->schema(), t->Row(r)));
      if (row_v.is_null()) {
        EXPECT_TRUE(compiled.GetValue(r).is_null())
            << e->ToString() << " row " << r;
      } else {
        ASSERT_OK_AND_ASSIGN(Value want_v, row_v.CastTo(out_t));
        EXPECT_EQ(compiled.GetValue(r), want_v) << e->ToString() << " row " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprCompileTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// P8: random associative-array programs over every registered semi-ring —
// the generic Ext/Join/Union kernels versus direct scalar reference folds,
// byte-identical (Table::Equals) at 1 and 4 threads.
// ---------------------------------------------------------------------------

algebra::AssocArray RandomAssoc(Rng* rng, int n) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int i = 0; i < n; ++i) {
    // Positive values: max_times is registered over the non-negative domain.
    EXPECT_OK(b.AppendRow({I(rng->NextInt(0, 12)),
                           F(rng->NextDouble(0.1, 2.0))}));
  }
  auto r = algebra::AssocArray::FromTable(b.Finish().ValueOrDie(), {"k"}, "v");
  EXPECT_TRUE(r.ok()) << r.status();
  return r.MoveValue();
}

/// One ⊕-step of the kernels' fold contract: `+`-folds accumulate from 0,
/// other monoids seed from the first value; lifted rings fold ring-one.
double RefFold(const algebra::Semiring& sr, bool seen, double acc, double v) {
  double x = sr.lift ? sr.one_f : v;
  if (sr.plus == algebra::MonoidOp::kAdd) return (seen ? acc : 0.0) + x;
  return seen ? algebra::ApplyF(sr.plus, acc, x) : x;
}

/// Direct ⊕-collapse of (key, value) entries in first-seen key order.
TablePtr RefNormalize(const std::vector<std::pair<int64_t, double>>& entries,
                      const SchemaPtr& schema, const algebra::Semiring& sr) {
  std::vector<int64_t> order;
  std::map<int64_t, size_t> pos;
  std::vector<double> acc;
  for (const auto& [k, v] : entries) {
    auto it = pos.find(k);
    if (it == pos.end()) {
      pos[k] = order.size();
      order.push_back(k);
      acc.push_back(RefFold(sr, false, 0.0, v));
    } else {
      acc[it->second] = RefFold(sr, true, acc[it->second], v);
    }
  }
  std::vector<std::vector<Value>> rows;
  for (size_t g = 0; g < order.size(); ++g) rows.push_back({I(order[g]), F(acc[g])});
  return MakeTable(schema, rows);
}

std::vector<std::pair<int64_t, double>> AssocEntries(
    const algebra::AssocArray& a) {
  std::vector<std::pair<int64_t, double>> out;
  for (int64_t r = 0; r < a.num_entries(); ++r) {
    out.emplace_back(a.key_column(0).ints()[static_cast<size_t>(r)],
                     a.value_column().doubles()[static_cast<size_t>(r)]);
  }
  return out;
}

class AssocProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(AssocProgramTest, KernelProgramsMatchDirectFoldsAcrossRegistry) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  struct Guard {
    int saved = GetThreadCount();
    ~Guard() { SetThreadCount(saved); }
  } guard;
  algebra::AssocArray a = RandomAssoc(&rng, 200);
  algebra::AssocArray b = RandomAssoc(&rng, 150);
  const SchemaPtr schema = a.table()->schema();
  for (const algebra::Semiring& sr : algebra::SemiringRegistry()) {
    // Union⊕: concat a-then-b, ⊕-collapse in first-seen key order.
    std::vector<std::pair<int64_t, double>> both = AssocEntries(a);
    for (const auto& e : AssocEntries(b)) both.push_back(e);
    TablePtr want_union = RefNormalize(both, schema, sr);
    // Join⊗ then Reduce⊕: pairs in a-entry order with b-matches in b-entry
    // order, each value va ⊗ vb (ring one ⊗ one when lifted).
    std::vector<std::pair<int64_t, double>> pairs;
    for (const auto& [ka, va] : AssocEntries(a)) {
      for (const auto& [kb, vb] : AssocEntries(b)) {
        if (ka != kb) continue;
        double x = sr.lift ? algebra::ApplyF(sr.times, sr.one_f, sr.one_f)
                           : algebra::ApplyF(sr.times, va, vb);
        pairs.emplace_back(ka, x);
      }
    }
    TablePtr want_join = RefNormalize(pairs, schema, sr);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      ASSERT_OK_AND_ASSIGN(algebra::AssocArray u, algebra::Union(a, b, sr));
      EXPECT_TRUE(u.table()->Equals(*want_union))
          << sr.name << " union, threads=" << threads;
      ASSERT_OK_AND_ASSIGN(algebra::AssocArray j, algebra::Join(a, b, sr));
      ASSERT_OK_AND_ASSIGN(algebra::AssocArray red,
                           algebra::Reduce(j, {"k"}, sr));
      EXPECT_TRUE(red.table()->Equals(*want_join))
          << sr.name << " join+reduce, threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssocProgramTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// P9: out-of-core identity. Joins, aggregations, and semi-ring reductions
// under a query meter with a randomized spill budget — drawn log-uniformly
// from [1, 64 KiB], so most draws force partitioning and the smallest force
// recursive repartition — are byte-identical (Table::Equals) to the
// unmetered in-memory result at 1 and 4 threads.
// ---------------------------------------------------------------------------

class SpillIdentityPropTest : public ::testing::TestWithParam<int> {};

TEST_P(SpillIdentityPropTest, SpilledExecutionIsByteIdenticalUnderAnyBudget) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 13);
  struct Guard {
    int saved = GetThreadCount();
    ~Guard() { SetThreadCount(saved); }
  } guard;

  // Random co-keyed tables (dup keys, null keys, null payloads).
  const int64_t key_range = rng.NextInt(4, 64);
  TablePtr left = RandomBaseTable(&rng, rng.NextInt(100, 500));
  SchemaPtr right_schema = MakeSchema({Field::Attr("k", DataType::kInt64),
                                       Field::Attr("w", DataType::kFloat64)});
  TableBuilder rb(right_schema);
  const int64_t nright = rng.NextInt(80, 400);
  for (int64_t i = 0; i < nright; ++i) {
    ASSERT_OK(rb.AppendRow(
        {rng.NextBounded(20) == 0 ? testing::N() : I(rng.NextInt(0, key_range)),
         F(static_cast<double>(rng.NextInt(-100, 100)))}));
  }
  ASSERT_OK_AND_ASSIGN(TablePtr right, rb.Finish());

  JoinOp join;
  join.left_keys = {"k"};
  join.right_keys = {"k"};
  AggregateOp agg;
  agg.group_by = {"g", "tag"};
  agg.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
              AggSpec{AggFunc::kCount, nullptr, "n"},
              AggSpec{AggFunc::kMin, Col("v"), "lo"},
              AggSpec{AggFunc::kAvg, Col("v"), "mean"}};
  const algebra::Semiring& ring =
      algebra::SemiringRegistry()[static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(
                             algebra::SemiringRegistry().size()) - 1))];
  ASSERT_OK_AND_ASSIGN(
      algebra::AssocArray arr,
      algebra::AssocArray::FromTable(left, {"k", "g"}, "v"));

  // In-memory baselines, sequential: no meter is installed, so nothing
  // spills.
  SetThreadCount(1);
  ASSERT_OK_AND_ASSIGN(TablePtr join_want, relational::HashJoin(left, right, join));
  ASSERT_OK_AND_ASSIGN(TablePtr agg_want, algebra::LowerAggregate(left, agg));
  ASSERT_OK_AND_ASSIGN(algebra::AssocArray red_want,
                       algebra::Reduce(arr, {"g"}, ring));

  // Log-uniform budget: half the draws land under 256 bytes, forcing
  // recursive repartition; the rest spread up to 64 KiB.
  const int64_t budget = int64_t{1} << rng.NextInt(0, 16);
  testing::ScopedBudget scope(budget);
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ASSERT_OK_AND_ASSIGN(TablePtr join_got, relational::HashJoin(left, right, join));
    EXPECT_TRUE(join_got->Equals(*join_want))
        << "join, budget=" << budget << " threads=" << threads;
    ASSERT_OK_AND_ASSIGN(TablePtr agg_got, algebra::LowerAggregate(left, agg));
    EXPECT_TRUE(agg_got->Equals(*agg_want))
        << "aggregate, budget=" << budget << " threads=" << threads;
    ASSERT_OK_AND_ASSIGN(algebra::AssocArray red_got,
                         algebra::Reduce(arr, {"g"}, ring));
    EXPECT_TRUE(red_got.table()->Equals(*red_want.table()))
        << "reduce(" << ring.name << "), budget=" << budget
        << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillIdentityPropTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// P10: incremental identity. Views registered over random relational plans,
// refreshed across random append batches to both base and join-side tables,
// must be bit-identical (Table::Equals, then float64 cells by bit pattern)
// to a full recompute of the same plan against the grown catalog — at 1 and
// 4 threads. The generated plans deliberately include shapes the delta
// rewrite refuses (Sort, Distinct, Limit, nested aggregates):
// refuse-and-fallback is part of the contract.
// Each seed also draws the registry's meter budget from {none, 4 KiB, 1 B},
// so retained join state is shed to scratch and reloaded mid-refresh.
// ---------------------------------------------------------------------------

class IncrementalIdentityPropTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalIdentityPropTest, RefreshMatchesFullRecomputeUnderAppends) {
  struct Guard {
    int saved = GetThreadCount();
    ~Guard() { SetThreadCount(saved); }
  } guard;
  constexpr int64_t kBudgets[] = {0, 4096, 1};
  const int64_t budget = kBudgets[GetParam() % 3];
  SchemaPtr side_schema = MakeSchema({Field::Attr("sk", DataType::kInt64),
                                      Field::Attr("sv", DataType::kFloat64)});
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    // Same seed per thread count: the identical scenario replays, and each
    // refresh is checked against its own full recompute.
    Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 7);
    InMemoryCatalog catalog;
    ASSERT_OK(catalog.Put("base", Dataset(RandomBaseTable(&rng, 60))));
    TableBuilder sb(side_schema);
    for (int64_t i = 0; i < 13; ++i) {
      ASSERT_OK(sb.AppendRow({I(i), F(static_cast<double>(i * 2))}));
    }
    ASSERT_OK(catalog.Put("side", Dataset(sb.Finish().ValueOrDie())));

    // The registry runs metered; the full recompute it is checked against
    // runs unmetered, in memory.
    testing::BudgetMeter meter(budget);
    TaskContext metered;
    metered.meter = &meter;
    incremental::ViewRegistry reg(&catalog);
    std::vector<std::pair<std::string, PlanPtr>> views;
    for (int i = 0; i < 4; ++i) {
      views.emplace_back(StrCat("v", i), RandomRelationalPlan(&rng, catalog, 4));
    }
    // One view always retains join build sides, the state a budget sheds.
    views.emplace_back("joined", Plan::Join(Plan::Scan("base"),
                                            Plan::Scan("side"),
                                            JoinType::kInner, {"k"}, {"sk"}));
    {
      ScopedTaskContext scope(&metered);
      for (const auto& [name, plan] : views) ASSERT_OK(reg.Register(name, plan));
    }

    for (int round = 0; round < 5; ++round) {
      // Random append batch: always some base rows, sometimes side rows.
      ASSERT_OK(catalog.Append(
          "base", Dataset(RandomBaseTable(&rng, rng.NextInt(1, 25)))));
      if (rng.NextBool(0.4)) {
        TableBuilder tb(side_schema);
        int64_t n = rng.NextInt(1, 6);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_OK(tb.AppendRow(
              {I(rng.NextInt(0, 12)),
               F(static_cast<double>(rng.NextInt(-20, 20)))}));
        }
        ASSERT_OK(catalog.Append("side", Dataset(tb.Finish().ValueOrDie())));
      }
      for (const auto& [name, plan] : views) {
        incremental::RefreshInfo info;
        Result<TablePtr> refreshed = [&] {
          ScopedTaskContext scope(&metered);
          return reg.Refresh(name, &info);
        }();
        ASSERT_OK_AND_ASSIGN(TablePtr got, std::move(refreshed));
        ASSERT_OK_AND_ASSIGN(TablePtr want,
                             incremental::ExecuteViewPlan(*plan, catalog));
        ASSERT_TRUE(got->Equals(*want))
            << "view " << name << " round " << round << " threads " << threads
            << " budget " << budget
            << (info.fell_back ? StrCat(" (fell back: ", info.refusal, ")")
                               : StrCat(" (incremental=", info.incremental,
                                        ", Δrows=", info.delta_rows, ")"))
            << "\nplan:\n"
            << plan->ToString() << "got:\n"
            << got->ToString() << "want:\n"
            << want->ToString();
        testing::ExpectSameBits(*got, *want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalIdentityPropTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace nexus
