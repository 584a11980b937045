// Incremental view maintenance tests: catalog append tails, the delta-form
// rewrite, ViewRegistry byte-identity (incremental == full recompute),
// refuse-and-fallback, state accounting + shedding, and delta-Iterate wire
// shipping (%NXB1-DELTA bindings).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/serialize.h"
#include "exec/incremental/view.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "optimizer/incremental.h"
#include "provider/provider.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using incremental::RefreshInfo;
using incremental::RewriteToDelta;
using incremental::ViewRegistry;
using testing::ExpectSameBits;
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;

SchemaPtr BaseSchema() {
  return MakeSchema({Field::Attr("k", DataType::kInt64),
                     Field::Attr("g", DataType::kInt64),
                     Field::Attr("v", DataType::kFloat64)});
}

TablePtr Rows(const SchemaPtr& s, std::vector<std::vector<Value>> rows) {
  return MakeTable(s, rows);
}

// ---------------------------------------------------------------------------
// Catalog tails.
// ---------------------------------------------------------------------------

TEST(CatalogTailTest, AppendAdvancesEpochAndDeltaSinceSlices) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("t", Dataset(Rows(s, {{I(1), I(0), F(1.0)}}))));
  ASSERT_OK_AND_ASSIGN(TableTail t0, cat.Tail("t"));
  EXPECT_EQ(t0.epoch, 0);
  EXPECT_EQ(t0.row_count, 1);

  ASSERT_OK(cat.Append("t", Dataset(Rows(s, {{I(2), I(1), F(2.0)},
                                             {I(3), I(0), F(3.0)}}))));
  ASSERT_OK(cat.Append("t", Dataset(Rows(s, {{I(4), I(1), F(4.0)}}))));
  ASSERT_OK_AND_ASSIGN(TableTail t2, cat.Tail("t"));
  EXPECT_EQ(t2.epoch, 2);
  EXPECT_EQ(t2.row_count, 4);
  EXPECT_EQ(t2.generation, t0.generation);

  ASSERT_OK_AND_ASSIGN(TablePtr d0, cat.DeltaSince("t", 0));
  EXPECT_EQ(d0->num_rows(), 3);
  ASSERT_OK_AND_ASSIGN(TablePtr d1, cat.DeltaSince("t", 1));
  EXPECT_EQ(d1->num_rows(), 1);
  EXPECT_EQ(d1->At(0, 0), I(4));
  ASSERT_OK_AND_ASSIGN(TablePtr d2, cat.DeltaSince("t", 2));
  EXPECT_EQ(d2->num_rows(), 0);
  EXPECT_FALSE(cat.DeltaSince("t", 3).ok());

  // Put replaces wholesale: new generation, epoch rewinds to 0.
  ASSERT_OK(cat.Put("t", Dataset(Rows(s, {{I(9), I(9), F(9.0)}}))));
  ASSERT_OK_AND_ASSIGN(TableTail t3, cat.Tail("t"));
  EXPECT_EQ(t3.epoch, 0);
  EXPECT_NE(t3.generation, t0.generation);
  ASSERT_OK(cat.Drop("t"));
  EXPECT_FALSE(cat.Tail("t").ok());
}

TEST(CatalogTailTest, AppendValidatesSchemaAndKind) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("t", Dataset(Rows(s, {{I(1), I(0), F(1.0)}}))));
  SchemaPtr other = MakeSchema({Field::Attr("x", DataType::kInt64)});
  EXPECT_FALSE(cat.Append("t", Dataset(Rows(other, {{I(1)}}))).ok());
  EXPECT_FALSE(cat.Append("missing", Dataset(Rows(s, {}))).ok());
}

TEST(CatalogTailTest, AppendKeepsStatsFresh) {
  // The stale-stats regression: est-rows must track the grown table, not
  // the Put-time snapshot.
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  TableBuilder seed(s);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_OK(seed.AppendRow({I(i), I(i % 4), F(static_cast<double>(i))}));
  }
  ASSERT_OK(cat.Put("t", Dataset(seed.Finish().ValueOrDie())));
  ASSERT_OK_AND_ASSIGN(TableStats before, cat.GetStats("t"));
  EXPECT_EQ(before.row_count, 50);

  for (int round = 0; round < 4; ++round) {
    TableBuilder b(s);
    for (int64_t i = 0; i < 100; ++i) {
      int64_t v = 50 + round * 100 + i;
      ASSERT_OK(b.AppendRow({I(v), I(v % 4), F(static_cast<double>(v))}));
    }
    ASSERT_OK(cat.Append("t", Dataset(b.Finish().ValueOrDie())));
  }
  ASSERT_OK_AND_ASSIGN(TableStats after, cat.GetStats("t"));
  EXPECT_EQ(after.row_count, 450);  // not 50
  // Distinct-count and min/max follow the appended data too.
  const ColumnStats& k = after.columns.at("k");
  EXPECT_GT(k.distinct, 300.0);
  ASSERT_TRUE(k.has_minmax);
  EXPECT_EQ(k.min, 0.0);
  EXPECT_EQ(k.max, 449.0);
}

// ---------------------------------------------------------------------------
// Delta-form rewrite.
// ---------------------------------------------------------------------------

PlanPtr FilterJoinAggPlan() {
  PlanPtr left = Plan::Select(Plan::Scan("base"), Gt(Col("v"), Lit(0.0)));
  PlanPtr join = Plan::Join(left, Plan::Scan("side"), JoinType::kInner, {"k"},
                            {"k"});
  AggSpec sum{AggFunc::kSum, Col("v"), "total"};
  AggSpec cnt{AggFunc::kCount, nullptr, "n"};
  return Plan::Aggregate(join, {"g"}, {sum, cnt});
}

TEST(DeltaFormTest, SupportsFilterJoinAggregateSpine) {
  PlanPtr plan = FilterJoinAggPlan();  // the delta form points into it
  auto form = RewriteToDelta(plan);
  ASSERT_TRUE(form.supported()) << form.refusal;
  std::string desc = DescribeDeltaForm(form);
  EXPECT_NE(desc.find("Δreduce⊕"), std::string::npos);
  EXPECT_NE(desc.find("Δjoin"), std::string::npos);
  EXPECT_NE(desc.find("Δfilter"), std::string::npos);
}

TEST(DeltaFormTest, RefusalTable) {
  PlanPtr scan = Plan::Scan("base");
  // Sort: output is not append-only.
  auto sort = RewriteToDelta(Plan::Sort(scan, {{"k", true}}));
  EXPECT_FALSE(sort.supported());
  // Non-inner join needs retractions.
  auto outer = RewriteToDelta(Plan::Join(Plan::Scan("base"),
                                         Plan::Scan("side"), JoinType::kLeft,
                                         {"k"}, {"k"}));
  EXPECT_FALSE(outer.supported());
  EXPECT_NE(outer.refusal.find("retraction"), std::string::npos);
  // Keys-free (cross) join.
  auto cross = RewriteToDelta(Plan::Join(Plan::Scan("base"),
                                         Plan::Scan("side"), JoinType::kInner,
                                         {}, {}));
  EXPECT_FALSE(cross.supported());
  // AVG is the `+` fold's (sum, count) pair: maintained, not refused.
  AggSpec avg{AggFunc::kAvg, Col("v"), "a"};
  auto with_avg = RewriteToDelta(Plan::Aggregate(scan, {}, {avg}));
  EXPECT_TRUE(with_avg.supported()) << with_avg.refusal;
  // Aggregate below the root changes by update, not by append.
  AggSpec cnt{AggFunc::kCount, nullptr, "n"};
  auto nested = RewriteToDelta(
      Plan::Select(Plan::Aggregate(scan, {"g"}, {cnt}), Gt(Col("n"), Lit(1))));
  EXPECT_FALSE(nested.supported());
  EXPECT_NE(DescribeDeltaForm(nested).find("refused:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ViewRegistry byte-identity.
// ---------------------------------------------------------------------------

/// Refreshes the view and asserts the result is bit-identical to a full
/// recompute of `plan` against the current catalog.
void ExpectRefreshMatchesFull(ViewRegistry* reg, const std::string& name,
                              const Plan& plan, const InMemoryCatalog& cat,
                              RefreshInfo* info = nullptr) {
  ASSERT_OK_AND_ASSIGN(TablePtr got, reg->Refresh(name, info));
  ASSERT_OK_AND_ASSIGN(TablePtr want, incremental::ExecuteViewPlan(plan, cat));
  ExpectSameBits(*got, *want);
}

TEST(ViewRegistryTest, FilterViewFoldsOnlyTheDelta) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(1), I(0), F(5.0)},
                                             {I(2), I(1), F(-1.0)}}))));
  PlanPtr plan = Plan::Select(Plan::Scan("base"), Gt(Col("v"), Lit(0.0)));
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("hot", plan));
  ExpectRefreshMatchesFull(&reg, "hot", *plan, cat);

  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(3), I(0), F(2.0)},
                                                {I(4), I(1), F(-3.0)},
                                                {I(5), I(0), F(7.0)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "hot", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  EXPECT_FALSE(info.fell_back);
  EXPECT_EQ(info.delta_rows, 2);  // two of the three appended rows pass

  // No appends: an empty refresh is still the same bytes.
  ExpectRefreshMatchesFull(&reg, "hot", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  EXPECT_EQ(info.delta_rows, 0);
}

TEST(ViewRegistryTest, JoinViewProbesOnlyTheDelta) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  SchemaPtr side = MakeSchema({Field::Attr("k", DataType::kInt64),
                               Field::Attr("name", DataType::kString)});
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(1), I(0), F(5.0)},
                                             {I(2), I(1), F(6.0)}}))));
  ASSERT_OK(cat.Put("side", Dataset(Rows(side, {{I(1), S("a")},
                                                {I(2), S("b")},
                                                {I(1), S("c")}}))));
  PlanPtr plan = Plan::Join(Plan::Scan("base"), Plan::Scan("side"),
                            JoinType::kInner, {"k"}, {"k"});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("j", plan));
  ExpectRefreshMatchesFull(&reg, "j", *plan, cat);

  // Appends on both sides, interleaved over several refreshes: ΔR⋈S_old and
  // R_new⋈ΔS pairs must land exactly where a full recompute puts them.
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(1), I(2), F(7.0)}}))));
  ExpectRefreshMatchesFull(&reg, "j", *plan, cat);
  ASSERT_OK(cat.Append("side", Dataset(Rows(side, {{I(2), S("d")},
                                                   {I(3), S("e")}}))));
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(3), I(3), F(8.0)},
                                                {I(2), I(4), F(9.0)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "j", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  EXPECT_GT(info.state_bytes, 0);
}

TEST(ViewRegistryTest, AggregateViewFoldsIntoRetainedGroups) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(1), I(0), F(5.0)},
                                             {I(2), I(1), F(6.0)}}))));
  AggSpec sum{AggFunc::kSum, Col("v"), "total"};
  AggSpec cnt{AggFunc::kCount, nullptr, "n"};
  AggSpec mx{AggFunc::kMax, Col("k"), "mk"};
  PlanPtr plan = Plan::Aggregate(
      Plan::Select(Plan::Scan("base"), Gt(Col("v"), Lit(0.0))), {"g"},
      {sum, cnt, mx});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("agg", plan));
  ExpectRefreshMatchesFull(&reg, "agg", *plan, cat);

  // New rows into existing groups, a brand-new group, and filtered rows.
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(7), I(1), F(1.0)},
                                                {I(9), I(2), F(3.0)},
                                                {I(8), I(0), F(-2.0)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "agg", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(4), I(2), F(2.5)}}))));
  ExpectRefreshMatchesFull(&reg, "agg", *plan, cat);
}

TEST(ViewRegistryTest, GlobalAggregateOverEmptyInputKeepsDefaultRow) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("base", Dataset(Table::Empty(s))));
  AggSpec cnt{AggFunc::kCount, nullptr, "n"};
  AggSpec sum{AggFunc::kSum, Col("k"), "sk"};
  PlanPtr plan = Plan::Aggregate(Plan::Scan("base"), {}, {cnt, sum});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("g", plan));
  ExpectRefreshMatchesFull(&reg, "g", *plan, cat);
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(1), I(0), F(1.0)}}))));
  ExpectRefreshMatchesFull(&reg, "g", *plan, cat);
}

TEST(ViewRegistryTest, StaticallyRefusedPlanFallsBackToFullRecompute) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(2), I(0), F(5.0)},
                                             {I(1), I(1), F(6.0)}}))));
  PlanPtr plan = Plan::Sort(Plan::Scan("base"), {{"k", true}});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("sorted", plan));
  ASSERT_OK_AND_ASSIGN(std::string desc, reg.Describe("sorted"));
  EXPECT_NE(desc.find("refused:"), std::string::npos);

  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(0), I(0), F(7.0)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "sorted", *plan, cat, &info);
  EXPECT_FALSE(info.incremental);
  EXPECT_FALSE(info.refusal.empty());
}

TEST(ViewRegistryTest, TableReplacedUnderViewForcesRebuild) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(1), I(0), F(5.0)}}))));
  PlanPtr plan = Plan::Select(Plan::Scan("base"), Gt(Col("v"), Lit(0.0)));
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("hot", plan));
  ASSERT_OK(reg.Refresh("hot").status());

  // Put (not Append) bumps the generation: retained state is unusable.
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(8), I(3), F(1.0)},
                                             {I(9), I(4), F(2.0)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "hot", *plan, cat, &info);
  EXPECT_TRUE(info.fell_back);
  EXPECT_NE(info.refusal.find("generation"), std::string::npos);
  // The rebuild re-seated the watermarks: the next refresh is incremental.
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(10), I(3), F(3.0)}}))));
  ExpectRefreshMatchesFull(&reg, "hot", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  EXPECT_FALSE(info.fell_back);
}

TEST(ViewRegistryTest, OutOfOrderFloatFoldRefusesAndFallsBack) {
  // Union tags keys by branch, so an append to the *left* branch after the
  // right branch contributed rows lands out of order at an order-sensitive
  // float ⊕-fold — the runtime refusal, answered by a full rebuild.
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("a", Dataset(Rows(s, {{I(1), I(0), F(0.1)}}))));
  ASSERT_OK(cat.Put("b", Dataset(Rows(s, {{I(2), I(0), F(0.2)}}))));
  AggSpec sum{AggFunc::kSum, Col("v"), "total"};
  PlanPtr plan = Plan::Aggregate(
      Plan::Union(Plan::Scan("a"), Plan::Scan("b")), {"g"}, {sum});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("u", plan));
  ExpectRefreshMatchesFull(&reg, "u", *plan, cat);

  ASSERT_OK(cat.Append("a", Dataset(Rows(s, {{I(3), I(0), F(0.3)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "u", *plan, cat, &info);
  EXPECT_TRUE(info.fell_back);
  EXPECT_NE(info.refusal.find("order"), std::string::npos);

  // An int-only fold over the same shape is order-insensitive: no refusal.
  AggSpec isum{AggFunc::kSum, Col("k"), "ik"};
  PlanPtr iplan = Plan::Aggregate(
      Plan::Union(Plan::Scan("a"), Plan::Scan("b")), {"g"}, {isum});
  ASSERT_OK(reg.Register("iu", iplan));
  ASSERT_OK(cat.Append("a", Dataset(Rows(s, {{I(5), I(0), F(0.5)}}))));
  ExpectRefreshMatchesFull(&reg, "iu", *iplan, cat, &info);
  EXPECT_TRUE(info.incremental);
  EXPECT_FALSE(info.fell_back);
}

TEST(ViewRegistryTest, AvgViewFoldsSumAndCount) {
  // AVG over int64 and over float64, with a null input, refreshed
  // incrementally in key order: byte-identical to a full recompute.
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(1), I(0), F(0.1)},
                                             {I(2), I(1), F(0.2)}}))));
  AggSpec iavg{AggFunc::kAvg, Col("k"), "ak"};
  AggSpec favg{AggFunc::kAvg, Col("v"), "av"};
  PlanPtr plan = Plan::Aggregate(Plan::Scan("base"), {"g"}, {iavg, favg});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("avg", plan));
  ExpectRefreshMatchesFull(&reg, "avg", *plan, cat);

  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(7), I(1), F(0.3)},
                                                {I(4), I(0), N()},
                                                {I(9), I(2), F(0.7)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "avg", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  EXPECT_FALSE(info.fell_back);
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(3), I(0), F(0.6)}}))));
  ExpectRefreshMatchesFull(&reg, "avg", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
}

TEST(ViewRegistryTest, OutOfOrderAvgRefusesAndFallsBack) {
  // AVG sums in double even over int64 input, so unlike an int64 SUM it is
  // order-sensitive: a left-branch append after the right branch
  // contributed refuses and rebuilds.
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  ASSERT_OK(cat.Put("a", Dataset(Rows(s, {{I(1), I(0), F(0.1)}}))));
  ASSERT_OK(cat.Put("b", Dataset(Rows(s, {{I(2), I(0), F(0.2)}}))));
  AggSpec iavg{AggFunc::kAvg, Col("k"), "ak"};
  PlanPtr plan = Plan::Aggregate(
      Plan::Union(Plan::Scan("a"), Plan::Scan("b")), {"g"}, {iavg});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("u", plan));
  ExpectRefreshMatchesFull(&reg, "u", *plan, cat);

  ASSERT_OK(cat.Append("a", Dataset(Rows(s, {{I(3), I(0), F(0.3)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "u", *plan, cat, &info);
  EXPECT_TRUE(info.fell_back);
  EXPECT_NE(info.refusal.find("order"), std::string::npos);
}

TEST(ViewRegistryTest, StateIsChargedAndSheddable) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  SchemaPtr side = MakeSchema({Field::Attr("k", DataType::kInt64),
                               Field::Attr("name", DataType::kString)});
  TableBuilder bb(s), sb(side);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_OK(bb.AppendRow({I(i % 16), I(i % 4), F(static_cast<double>(i))}));
    ASSERT_OK(sb.AppendRow({I(i % 16), S(StrCat("n", i))}));
  }
  ASSERT_OK(cat.Put("base", Dataset(bb.Finish().ValueOrDie())));
  ASSERT_OK(cat.Put("side", Dataset(sb.Finish().ValueOrDie())));
  PlanPtr plan = Plan::Join(Plan::Scan("base"), Plan::Scan("side"),
                            JoinType::kInner, {"k"}, {"k"});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("j", plan));
  int64_t resident = reg.state_bytes();
  EXPECT_GT(resident, 0);

  // Shed everything: join build sides park on disk...
  ASSERT_OK(reg.ShedState(0));
  EXPECT_LT(reg.state_bytes(), resident);
  // ...and the next refresh reloads them and still matches a full recompute.
  ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(3), I(1), F(999.0)}}))));
  RefreshInfo info;
  ExpectRefreshMatchesFull(&reg, "j", *plan, cat, &info);
  EXPECT_TRUE(info.incremental);
  ASSERT_OK(reg.Unregister("j"));
  EXPECT_EQ(reg.state_bytes(), 0);
}

SchemaPtr HardSchema() {
  return MakeSchema({Field::Attr("f", DataType::kFloat64),
                     Field::Attr("s", DataType::kString),
                     Field::Attr("b", DataType::kBool),
                     Field::Attr("k", DataType::kInt64),
                     Field::Attr("v", DataType::kInt64)});
}

/// Rows over hard group keys: float keys among NaN, -0.0 and +0.0, strings
/// with an empty one, bools, and int64 keys that are sometimes null.
TablePtr HardRows(Rng* rng, int64_t n) {
  const double kFloats[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                            0.0, 1.5, -2.0};
  const char* kStrings[] = {"", "a", "bb"};
  TableBuilder b(HardSchema());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_OK(b.AppendRow(
        {F(kFloats[rng->NextBounded(5)]), S(kStrings[rng->NextBounded(3)]),
         testing::B(rng->NextBool()),
         rng->NextBool(0.2) ? N() : I(rng->NextInt(0, 3)),
         I(rng->NextInt(-5, 5))}));
  }
  return b.Finish().ValueOrDie();
}

TEST(ViewRegistryTest, HardKeysAndShapesMatchFullRecompute) {
  const int saved_threads = GetThreadCount();
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    Rng rng(23);
    InMemoryCatalog cat;
    ASSERT_OK(cat.Put("a", Dataset(HardRows(&rng, 12))));
    ASSERT_OK(cat.Put("b", Dataset(HardRows(&rng, 12))));
    SchemaPtr side = MakeSchema({Field::Attr("k", DataType::kInt64),
                                 Field::Attr("w", DataType::kInt64)});
    ASSERT_OK(cat.Put("side", Dataset(Rows(side, {{I(1), I(0)},
                                                  {N(), I(9)},
                                                  {I(2), I(-3)},
                                                  {I(1), I(4)}}))));
    const std::vector<AggSpec> aggs = {
        {AggFunc::kSum, Col("v"), "sv"},   {AggFunc::kMin, Col("v"), "lo"},
        {AggFunc::kMax, Col("v"), "hi"},   {AggFunc::kAvg, Col("v"), "av"},
        {AggFunc::kCount, nullptr, "n"},   {AggFunc::kSum, Col("f"), "sf"},
        {AggFunc::kMin, Col("s"), "ls"}};
    // Int-only folds: a left-branch append lands before existing groups
    // without a refusal, so the representative swap runs.
    const std::vector<AggSpec> int_aggs = {
        {AggFunc::kSum, Col("v"), "sv"},
        {AggFunc::kMin, Col("v"), "lo"},
        {AggFunc::kCount, nullptr, "n"}};
    std::vector<std::pair<std::string, PlanPtr>> views;
    for (const char* key : {"f", "s", "b", "k"}) {
      views.emplace_back(StrCat("by_", key),
                         Plan::Aggregate(Plan::Scan("a"), {key}, aggs));
    }
    views.emplace_back("by_f_s_k",
                       Plan::Aggregate(Plan::Scan("a"), {"f", "s", "k"}, aggs));
    views.emplace_back(
        "union", Plan::Aggregate(Plan::Union(Plan::Scan("a"), Plan::Scan("b")),
                                 {"f"}, int_aggs));
    views.emplace_back(
        "join", Plan::Join(Plan::Scan("a"), Plan::Scan("side"),
                           JoinType::kInner, {"k"}, {"k"},
                           Gt(Col("v"), Col("w"))));
    ViewRegistry reg(&cat);
    for (const auto& [name, plan] : views) ASSERT_OK(reg.Register(name, plan));

    for (int round = 0; round < 6; ++round) {
      ASSERT_OK(cat.Append("a", Dataset(HardRows(&rng, rng.NextInt(1, 8)))));
      if (round % 2 == 0) {
        ASSERT_OK(cat.Append("b", Dataset(HardRows(&rng, rng.NextInt(1, 8)))));
      }
      if (round == 3) {
        ASSERT_OK(cat.Append("side", Dataset(Rows(side, {{I(3), I(-9)},
                                                         {N(), I(-9)}}))));
      }
      for (const auto& [name, plan] : views) {
        SCOPED_TRACE(StrCat(name, " round ", round, " threads ", threads));
        RefreshInfo info;
        ASSERT_OK_AND_ASSIGN(TablePtr got, reg.Refresh(name, &info));
        ASSERT_OK_AND_ASSIGN(TablePtr want,
                             incremental::ExecuteViewPlan(*plan, cat));
        ExpectSameBits(*got, *want);
        EXPECT_TRUE(info.incremental);
      }
    }

    // A -0.0 appended to the left branch precedes the right branch's +0.0
    // in full-recompute order, so it takes over as the group's
    // representative.
    SchemaPtr s = BaseSchema();
    ASSERT_OK(cat.Put("l", Dataset(Rows(s, {{I(1), I(0), F(1.0)}}))));
    ASSERT_OK(cat.Put("r", Dataset(Rows(s, {{I(2), I(0), F(0.0)}}))));
    PlanPtr zeros = Plan::Aggregate(
        Plan::Union(Plan::Scan("l"), Plan::Scan("r")), {"v"},
        {AggSpec{AggFunc::kSum, Col("k"), "sk"}});
    ASSERT_OK(reg.Register("zeros", zeros));
    ASSERT_OK(cat.Append("l", Dataset(Rows(s, {{I(3), I(0), F(-0.0)}}))));
    RefreshInfo info;
    ASSERT_OK_AND_ASSIGN(TablePtr got, reg.Refresh("zeros", &info));
    EXPECT_TRUE(info.incremental);
    ASSERT_OK_AND_ASSIGN(TablePtr want,
                         incremental::ExecuteViewPlan(*zeros, cat));
    ExpectSameBits(*got, *want);
    ASSERT_EQ(got->num_rows(), 2);
    EXPECT_TRUE(std::signbit(got->column(0).doubles()[1]));
    EXPECT_EQ(got->At(1, 1), I(5));
  }
  SetThreadCount(saved_threads);
}

TEST(ViewRegistryTest, ShedStateWhileRefreshing) {
  InMemoryCatalog cat;
  SchemaPtr s = BaseSchema();
  SchemaPtr side = MakeSchema({Field::Attr("k", DataType::kInt64),
                               Field::Attr("name", DataType::kString)});
  ASSERT_OK(cat.Put("base", Dataset(Rows(s, {{I(1), I(0), F(1.0)}}))));
  ASSERT_OK(cat.Put("side", Dataset(Rows(side, {{I(1), S("a")},
                                                {I(2), S("b")}}))));
  PlanPtr plan = Plan::Join(Plan::Scan("base"), Plan::Scan("side"),
                            JoinType::kInner, {"k"}, {"k"});
  ViewRegistry reg(&cat);
  ASSERT_OK(reg.Register("j", plan));
  std::atomic<bool> stop{false};
  std::thread shedder([&] {
    while (!stop.load()) EXPECT_OK(reg.ShedState(0));
  });
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_OK(cat.Append("base", Dataset(Rows(s, {{I(i % 3), I(i), F(2.0)}}))));
    if (i % 4 == 0) {
      ASSERT_OK(cat.Append("side", Dataset(Rows(side, {{I(i % 3), S("c")}}))));
    }
    ExpectRefreshMatchesFull(&reg, "j", *plan, cat);
  }
  stop.store(true);
  shedder.join();
}

// ---------------------------------------------------------------------------
// Delta binding wire + provider sticky bindings.
// ---------------------------------------------------------------------------

TEST(DeltaBindingTest, WireRoundTrips) {
  std::string wire = BuildDeltaBindingWire(42, 7, "TAILBYTES");
  ASSERT_TRUE(IsDeltaBindingWire(wire));
  EXPECT_FALSE(IsDeltaBindingWire("(scan base)"));
  ASSERT_OK_AND_ASSIGN(DeltaBindingView v, ParseDeltaBindingWire(wire));
  EXPECT_EQ(v.base_rows, 42);
  EXPECT_EQ(v.chain_fp, 7u);
  EXPECT_EQ(v.tail_wire, "TAILBYTES");
  EXPECT_FALSE(ParseDeltaBindingWire("%NXB1-DELTA x\n").ok());
  // The chain fingerprint is order-sensitive and never 0.
  uint64_t c1 = ChainFingerprint(0, "a");
  uint64_t c2 = ChainFingerprint(c1, "b");
  EXPECT_NE(c1, 0u);
  EXPECT_NE(c2, c1);
  EXPECT_NE(ChainFingerprint(ChainFingerprint(0, "b"), "a"), c2);
}

TEST(DeltaBindingTest, ProviderMissesWithoutABase) {
  // A delta binding against a provider that holds no base must come back as
  // NotFound carrying the miss marker — the coordinator's re-ship trigger.
  ProviderPtr p = MakeRelationalProvider();
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kInt64)});
  std::string tail =
      SerializeDatasetWire(Dataset(Rows(s, {{I(1)}})), WireFormat::kText);
  std::string plan_wire = SerializePlan(*Plan::Scan("b0"));
  std::string wire = BuildWireEnvelope(
      WireEnvelope::Kind::kPlanStore, FingerprintWire(plan_wire),
      {{"b0", BuildDeltaBindingWire(3, 99, tail)}}, plan_wire);
  auto r = p->ExecuteWire(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find(kDeltaBindingMissMarker),
            std::string::npos);

  // Ship the full value once; the same delta (correct chain) now lands.
  std::string full =
      SerializeDatasetWire(Dataset(Rows(s, {{I(7)}, {I(8)}, {I(9)}})),
                           WireFormat::kText);
  std::string store = BuildWireEnvelope(WireEnvelope::Kind::kPlanStore,
                                        FingerprintWire(plan_wire) + 1,
                                        {{"b0", full}}, plan_wire);
  ASSERT_OK(p->ExecuteWire(store).status());
  std::string delta = BuildWireEnvelope(
      WireEnvelope::Kind::kPlanStore, FingerprintWire(plan_wire) + 2,
      {{"b0", BuildDeltaBindingWire(3, ChainFingerprint(0, full), tail)}},
      plan_wire);
  ASSERT_OK_AND_ASSIGN(Dataset got, p->ExecuteWire(delta));
  EXPECT_EQ(got.num_rows(), 4);  // 3 base rows + the 1-row tail
  EXPECT_EQ(got.table()->At(3, 0), I(1));
}

// ---------------------------------------------------------------------------
// Delta-driven Iterate over the wire.
// ---------------------------------------------------------------------------

/// An accumulating client-driven loop: each round appends one Values row to
/// the loop state, so every round's binding prefix-extends the last.
PlanPtr GrowingLoop(const SchemaPtr& s, int64_t rounds) {
  IterateOp op;
  op.body = Plan::Union(Plan::LoopVar(),
                        Plan::Values(Dataset(MakeTable(s, {{I(-1)}}))));
  op.max_iters = rounds;
  return Plan::Iterate(Plan::Scan("state0"), op);
}

class DeltaIterateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    ASSERT_OK(cluster_->AddServer("relstore", MakeRelationalProvider()));
    s_ = MakeSchema({Field::Attr("v", DataType::kInt64)});
    TableBuilder b(s_);
    for (int64_t i = 0; i < 64; ++i) ASSERT_OK(b.AppendRow({I(i)}));
    ASSERT_OK(cluster_->PutData("relstore", "state0",
                                Dataset(b.Finish().ValueOrDie())));
  }
  std::unique_ptr<Cluster> cluster_;
  SchemaPtr s_;
};

TEST_F(DeltaIterateTest, ShipsOnlyPerRoundDeltas) {
  PlanPtr loop = GrowingLoop(s_, 8);
  Coordinator provider_side(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset want, provider_side.Execute(loop));

  CoordinatorOptions opts;
  opts.provider_side_iteration = false;  // force the client-driven loop
  Coordinator coord(cluster_.get(), opts);
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(loop, &m));

  // Byte-identical result; every round after the first ships a tail, so
  // the run moves fewer bytes than shipping every binding whole (shipped +
  // saved, as the coordinator accounts it).
  EXPECT_TRUE(got.table()->Equals(*want.table()));
  EXPECT_GE(m.profile[QueryStat::kDeltaBindings], 7);
  EXPECT_GT(m.profile[QueryStat::kDeltaBytesSaved], 0);
  // Deltas change bytes, never the conversation: the message count a
  // full-ship run has, one plan message out and one data message back per
  // round plus one round trip outside the loop.
  EXPECT_EQ(m.profile[QueryStat::kClientLoopIterations], 8);
  EXPECT_EQ(m.profile[QueryStat::kPlanMessages],
            m.profile[QueryStat::kClientLoopIterations] + 1);
  EXPECT_EQ(m.profile[QueryStat::kDataMessages],
            m.profile[QueryStat::kClientLoopIterations] + 1);
  EXPECT_EQ(m.profile[QueryStat::kMessages],
            2 * (m.profile[QueryStat::kClientLoopIterations] + 1));
}

TEST_F(DeltaIterateTest, PrefixBitChangesShipInFull) {
  // Each round negates every float cell of the loop state and appends a
  // +0.0, so the old rows change only in the sign of a zero: equal under
  // Value::Compare, but not the same bits. No round may ship as a tail.
  SchemaPtr fs = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(cluster_->PutData("relstore", "fstate0",
                              Dataset(MakeTable(fs, {{F(0.0)}}))));
  IterateOp op;
  PlanPtr negated = Plan::Project(
      Plan::Extend(Plan::LoopVar(), {{"nv", Mul(Col("v"), Lit(-1.0))}}),
      {"nv"});
  op.body = Plan::Union(Plan::Rename(negated, {{"nv", "v"}}),
                        Plan::Values(Dataset(MakeTable(fs, {{F(0.0)}}))));
  op.max_iters = 5;
  PlanPtr loop = Plan::Iterate(Plan::Scan("fstate0"), op);

  CoordinatorOptions opts;
  opts.provider_side_iteration = false;
  Coordinator coord(cluster_.get(), opts);
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(loop, &m));
  EXPECT_EQ(m.profile[QueryStat::kDeltaBindings], 0);
  // After round r the state is r+1 zeros, row i carrying the sign (-1)^(r-i).
  const TablePtr& t = got.table();
  ASSERT_EQ(t->num_rows(), 6);
  for (int64_t i = 0; i < t->num_rows(); ++i) {
    EXPECT_EQ(std::signbit(t->column(0).doubles()[static_cast<size_t>(i)]),
              (5 - i) % 2 == 1)
        << "row " << i;
  }
}

TEST_F(DeltaIterateTest, ExplainAnalyzeReportsIncrementalLine) {
  CoordinatorOptions opts;
  opts.provider_side_iteration = false;
  Coordinator coord(cluster_.get(), opts);
  ASSERT_OK_AND_ASSIGN(std::string report,
                       coord.ExplainAnalyze(GrowingLoop(s_, 6)));
  // The trailer's coordinator line reports the tails that traveled.
  std::string line = testing::ProfileLine(report, "coordinator");
  EXPECT_GT(testing::ProfileValue(line, "delta_bindings"), 0) << report;
}

}  // namespace
}  // namespace nexus
