// Round-trip tests for the s-expression wire format: expressions, datasets,
// and full plans (including nested Iterate bodies and inline Values data).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string_view>

#include "common/random.h"
#include "common/str_util.h"
#include "core/serialize.h"
#include "core/wire_format.h"
#include "expr/builder.h"
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

void ExpectExprRoundTrip(const ExprPtr& e) {
  std::string wire = SerializeExpr(*e);
  ASSERT_OK_AND_ASSIGN(ExprPtr back, ParseExpr(wire));
  EXPECT_TRUE(e->Equals(*back)) << wire << " -> " << back->ToString();
}

TEST(ExprSerializeTest, Literals) {
  ExpectExprRoundTrip(Lit(42));
  ExpectExprRoundTrip(Lit(-7));
  ExpectExprRoundTrip(Lit(2.5));
  ExpectExprRoundTrip(Lit(1e-12));
  ExpectExprRoundTrip(Lit(3.0));  // float that prints like an int
  ExpectExprRoundTrip(Lit(true));
  ExpectExprRoundTrip(Lit(false));
  ExpectExprRoundTrip(NullLit());
  ExpectExprRoundTrip(Lit("hello world"));
  ExpectExprRoundTrip(Lit("quotes \" and \\ and \n"));
  ExpectExprRoundTrip(Lit(""));
}

TEST(ExprSerializeTest, Composites) {
  ExpectExprRoundTrip(Add(Col("a"), Mul(Col("b"), Lit(2))));
  ExpectExprRoundTrip(And(Ge(Col("x"), Lit(1.5)), Not(Col("flag"))));
  ExpectExprRoundTrip(Func("pow", {Col("a"), Lit(2.0)}));
  ExpectExprRoundTrip(Cast(DataType::kString, Col("a")));
  ExpectExprRoundTrip(Neg(Func("coalesce", {Col("a"), Lit(0)})));
  ExpectExprRoundTrip(Mod(Col("k"), Lit(16)));
}

TEST(ExprSerializeTest, FloatPrecisionSurvives) {
  double tricky = 0.1 + 0.2;  // not representable as a short decimal
  ASSERT_OK_AND_ASSIGN(ExprPtr back, ParseExpr(SerializeExpr(*Lit(tricky))));
  EXPECT_EQ(back->literal().AsFloat64(), tricky);
}

// Non-finite doubles carry a sign on the text wire (+inf, -inf, +nan), so
// the reader takes them for numbers rather than symbols.
TEST(ExprSerializeTest, NonFiniteLiteralsRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(SerializeExpr(*Lit(inf)), "(f64 +inf)");
  EXPECT_EQ(SerializeExpr(*Lit(-inf)), "(f64 -inf)");
  EXPECT_EQ(SerializeExpr(*Lit(std::nan(""))), "(f64 +nan)");
  for (double v : {inf, -inf, std::nan("")}) {
    std::string wire = SerializeExpr(*Lit(v));
    ASSERT_OK_AND_ASSIGN(ExprPtr back, ParseExpr(wire));
    ASSERT_TRUE(back->literal().is_float64()) << wire;
    double got = back->literal().AsFloat64();
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(got)) << wire;
    } else {
      EXPECT_EQ(got, v) << wire;
    }
  }
}

TEST(ExprSerializeTest, ParseErrors) {
  EXPECT_FALSE(ParseExpr("(col").ok());
  EXPECT_FALSE(ParseExpr("(bogus 1 2)").ok());
  EXPECT_FALSE(ParseExpr("(col \"a\") trailing").ok());
  EXPECT_FALSE(ParseExpr("(+ (col \"a\"))").ok());  // wrong arity
  EXPECT_FALSE(ParseExpr("(\"unterminated").ok());
  EXPECT_FALSE(ParseExpr("").ok());
}

TEST(DatasetSerializeTest, TableRoundTrip) {
  SchemaPtr s = MakeSchema({Field::Attr("name", DataType::kString),
                            Field::Attr("age", DataType::kInt64),
                            Field::Attr("score", DataType::kFloat64),
                            Field::Attr("ok", DataType::kBool)});
  TablePtr t = MakeTable(s, {{S("ann"), I(31), F(0.5), testing::B(true)},
                             {S("bob"), N(), F(-2.25), testing::B(false)},
                             {S(""), I(0), N(), N()}});
  Dataset d(t);
  ASSERT_OK_AND_ASSIGN(Dataset back, ParseDataset(SerializeDataset(d)));
  EXPECT_TRUE(back.is_table());
  EXPECT_TRUE(back.table()->Equals(*t));
}

TEST(DatasetSerializeTest, ArrayKeepsGeometry) {
  SchemaPtr s = MakeSchema({Field::Dim("i"), Field::Attr("v", DataType::kFloat64)});
  TablePtr t = MakeTable(s, {{I(0), F(1.0)}, {I(7), F(2.0)}});
  ASSERT_OK_AND_ASSIGN(NDArrayPtr arr, Dataset(t).AsArray(4));
  Dataset d(arr);
  ASSERT_OK_AND_ASSIGN(Dataset back, ParseDataset(SerializeDataset(d)));
  ASSERT_TRUE(back.is_array());
  EXPECT_EQ(back.array()->dim(0).chunk_size, 4);
  EXPECT_TRUE(back.array()->Equals(*arr));
}

TEST(DatasetSerializeTest, DimensionTagsSurvive) {
  SchemaPtr s = MakeSchema({Field::Dim("i"), Field::Attr("v", DataType::kInt64)});
  Dataset d(MakeTable(s, {{I(1), I(10)}}));
  ASSERT_OK_AND_ASSIGN(Dataset back, ParseDataset(SerializeDataset(d)));
  EXPECT_TRUE(back.schema()->field(0).is_dimension);
}

PlanPtr SamplePlanValues() {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  return Plan::Values(Dataset(MakeTable(s, {{I(1), F(2.0)}, {I(2), F(4.0)}})));
}

void ExpectPlanRoundTrip(const PlanPtr& p) {
  std::string wire = SerializePlan(*p);
  ASSERT_OK_AND_ASSIGN(PlanPtr back, ParsePlan(wire));
  EXPECT_TRUE(p->Equals(*back)) << wire;
  // Serialization is deterministic.
  EXPECT_EQ(SerializePlan(*back), wire);
}

TEST(PlanSerializeTest, RelationalOperators) {
  PlanPtr scan = Plan::Scan("emp");
  ExpectPlanRoundTrip(scan);
  ExpectPlanRoundTrip(SamplePlanValues());
  ExpectPlanRoundTrip(Plan::Select(scan, Gt(Col("age"), Lit(30))));
  ExpectPlanRoundTrip(Plan::Project(scan, {"a", "b"}));
  ExpectPlanRoundTrip(Plan::Extend(scan, {{"x", Add(Col("a"), Lit(1))},
                                          {"y", Mul(Col("a"), Col("a"))}}));
  ExpectPlanRoundTrip(Plan::Join(scan, Plan::Scan("dept"), JoinType::kInner,
                                 {"dept_id"}, {"id"}));
  ExpectPlanRoundTrip(Plan::Join(scan, Plan::Scan("dept"), JoinType::kLeft,
                                 {"dept_id"}, {"id"},
                                 Gt(Col("salary"), Col("budget"))));
  ExpectPlanRoundTrip(Plan::Join(scan, Plan::Scan("dept"), JoinType::kAnti,
                                 {"dept_id"}, {"id"}));
  ExpectPlanRoundTrip(Plan::Aggregate(
      scan, {"dept"},
      {AggSpec{AggFunc::kSum, Col("salary"), "total"},
       AggSpec{AggFunc::kCount, nullptr, "n"},
       AggSpec{AggFunc::kAvg, Add(Col("a"), Col("b")), "mean"}}));
  ExpectPlanRoundTrip(Plan::Sort(scan, {{"a", true}, {"b", false}}));
  ExpectPlanRoundTrip(Plan::Limit(scan, 10, 5));
  ExpectPlanRoundTrip(Plan::Distinct(scan));
  ExpectPlanRoundTrip(Plan::Union(scan, Plan::Scan("emp2")));
  ExpectPlanRoundTrip(Plan::Rename(scan, {{"a", "b"}, {"c", "d"}}));
}

TEST(PlanSerializeTest, ArrayOperators) {
  PlanPtr scan = Plan::Scan("grid");
  ExpectPlanRoundTrip(Plan::Rebox(scan, {"i", "j"}, 32));
  ExpectPlanRoundTrip(Plan::Unbox(scan));
  ExpectPlanRoundTrip(Plan::Slice(scan, {{"i", 0, 10}, {"j", -5, 5}}));
  ExpectPlanRoundTrip(Plan::Shift(scan, {{"i", 3}, {"j", -2}}));
  ExpectPlanRoundTrip(Plan::Regrid(scan, {{"i", 4}, {"j", 4}}, AggFunc::kAvg));
  ExpectPlanRoundTrip(Plan::Transpose(scan, {"j", "i"}));
  ExpectPlanRoundTrip(Plan::Window(scan, {{"i", 1}, {"j", 2}}, AggFunc::kMax));
  ExpectPlanRoundTrip(Plan::ElemWise(scan, Plan::Scan("grid2"), BinaryOp::kMul));
}

TEST(PlanSerializeTest, IntentOperators) {
  ExpectPlanRoundTrip(Plan::MatMul(Plan::Scan("A"), Plan::Scan("B"), "prod"));
  PageRankOp pr;
  pr.src_col = "from";
  pr.dst_col = "to";
  pr.damping = 0.9;
  pr.max_iters = 25;
  pr.epsilon = 1e-6;
  ExpectPlanRoundTrip(Plan::PageRank(Plan::Scan("edges"), pr));
}

TEST(PlanSerializeTest, IterateWithNestedPlans) {
  IterateOp it;
  it.body = Plan::Extend(Plan::LoopVar(), {{"next", Mul(Col("v"), Lit(0.5))}});
  it.measure = Plan::Aggregate(
      Plan::LoopVar(true), {},
      {AggSpec{AggFunc::kSum, Col("v"), "delta"}});
  it.epsilon = 1e-3;
  it.max_iters = 40;
  ExpectPlanRoundTrip(Plan::Iterate(Plan::Scan("state0"), it));

  IterateOp no_measure;
  no_measure.body = Plan::Select(Plan::LoopVar(), Gt(Col("v"), Lit(0)));
  no_measure.max_iters = 3;
  ExpectPlanRoundTrip(Plan::Iterate(Plan::Scan("s"), no_measure));
}

TEST(PlanSerializeTest, NonFiniteOperatorFieldsRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  auto same = [](double got, double want) {
    return std::isnan(want) ? std::isnan(got) : got == want;
  };
  for (double v : {inf, -inf, std::nan("")}) {
    PageRankOp pr;
    pr.epsilon = v;
    IterateOp it;
    it.body = Plan::LoopVar();
    it.epsilon = v;
    for (WireFormat format : {WireFormat::kText, WireFormat::kBinary}) {
      std::string wire =
          SerializePlanWire(*Plan::PageRank(Plan::Scan("edges"), pr), format);
      ASSERT_OK_AND_ASSIGN(PlanPtr back, ParsePlan(wire));
      EXPECT_TRUE(same(back->As<PageRankOp>().epsilon, v)) << wire;
      wire = SerializePlanWire(*Plan::Iterate(Plan::Scan("s"), it), format);
      ASSERT_OK_AND_ASSIGN(back, ParsePlan(wire));
      EXPECT_TRUE(same(back->As<IterateOp>().epsilon, v)) << wire;
    }
  }
}

// Join key lists of unequal length: the label marks the missing partner and
// the wire carries the unpaired key alone, which the reader refuses, so such
// a plan is never read past the end of either list nor shipped.
TEST(PlanSerializeTest, UnequalJoinKeyListsNeverShip) {
  struct Case {
    std::vector<std::string> left, right;
    const char* label;
  };
  for (const Case& c : {Case{{"x", "y"}, {"x"}, "join[inner, x=x, y=?]"},
                        Case{{"x"}, {"x", "y"}, "join[inner, x=x, ?=y]"},
                        Case{{}, {"z"}, "join[inner, ?=z]"}}) {
    PlanPtr p = Plan::Join(Plan::Scan("a"), Plan::Scan("b"), JoinType::kInner,
                           c.left, c.right);
    EXPECT_EQ(p->NodeLabel(), c.label);
    for (WireFormat format : {WireFormat::kText, WireFormat::kBinary}) {
      std::string wire = SerializePlanWire(*p, format);
      auto parsed = ParsePlan(wire);
      ASSERT_FALSE(parsed.ok()) << wire;
      EXPECT_EQ(parsed.status().code(), StatusCode::kSerializationError) << wire;
    }
  }
}

TEST(PlanSerializeTest, Exchange) {
  ExpectPlanRoundTrip(
      Plan::Exchange(Plan::Scan("t"), "arraydb", TransferMode::kDirect));
  ExpectPlanRoundTrip(
      Plan::Exchange(Plan::Scan("t"), "client", TransferMode::kRelay));
}

TEST(PlanSerializeTest, DeepPipeline) {
  PlanPtr p = Plan::Scan("events");
  p = Plan::Select(p, Gt(Col("ts"), Lit(100)));
  p = Plan::Extend(p, {{"bucket", Mod(Col("ts"), Lit(60))}});
  p = Plan::Aggregate(p, {"bucket"}, {AggSpec{AggFunc::kCount, nullptr, "n"}});
  p = Plan::Sort(p, {{"n", false}});
  p = Plan::Limit(p, 10, 0);
  ExpectPlanRoundTrip(p);
  EXPECT_EQ(p->TreeSize(), 6);
}

TEST(PlanSerializeTest, ParseErrors) {
  EXPECT_FALSE(ParsePlan("(scan)").ok());
  EXPECT_FALSE(ParsePlan("(frobnicate (scan \"t\"))").ok());
  EXPECT_FALSE(ParsePlan("(select (scan \"t\"))").ok());  // missing predicate
  EXPECT_FALSE(ParsePlan("(join (scan \"a\") (scan \"b\"))").ok());
  EXPECT_FALSE(ParsePlan("not a sexpr").ok());
  // Each item must be exactly what the operator's fields call for: the
  // right head on a tagged list, a known symbol, and nothing left over.
  for (const char* wire : {
           "(extend (scan \"t\") (bogus \"x\" (col \"a\")))",
           "(aggregate (scan \"t\") (grp \"k\") (agg count \"n\" none))",
           "(aggregate (scan \"t\") (by \"k\") (sum count \"n\" none))",
           "(join (scan \"a\") (scan \"b\") inner (kees (\"x\" \"y\")) none)",
           "(sort (scan \"t\") (kee \"a\" asc))",
           "(rename (scan \"t\") (mop \"a\" \"b\"))",
           "(slice (scan \"t\") (rng \"i\" 0 1))",
           "(shift (scan \"t\") (of \"i\" 1))",
           "(regrid (scan \"t\") avg (fact \"i\" 2))",
           "(window (scan \"t\") avg (rad \"i\" 1))",
           "(loopvar banana)",
           "(sort (scan \"t\") (key \"a\" dsc))",
           "(exchange (scan \"t\") \"s\" relya)",
           "(scan \"t\" \"u\")",
           "(limit (scan \"t\") 1 0 9)",
           "(loopvar curr prev)",
           "(distinct (scan \"t\") 1)",
           "(pagerank (scan \"e\") \"s\" \"d\" 0.85 50 0.001 7)",
           "(extend (scan \"t\") (def \"x\" (col \"a\") extra))",
       }) {
    auto parsed = ParsePlan(wire);
    ASSERT_FALSE(parsed.ok()) << wire;
    EXPECT_EQ(parsed.status().code(), StatusCode::kSerializationError) << wire;
  }
}

TEST(PlanSerializeTest, ValuesDataSurvives) {
  PlanPtr p = SamplePlanValues();
  ASSERT_OK_AND_ASSIGN(PlanPtr back, ParsePlan(SerializePlan(*p)));
  const Dataset& d = back->As<ValuesOp>().data;
  EXPECT_EQ(d.num_rows(), 2);
  EXPECT_EQ(d.schema()->field(1).type, DataType::kFloat64);
}

// ---------------------------------------------------------------------------
// Golden wire bytes: one plan per OpKind, pinned byte for byte in both wire
// formats, so a change to how any operator's fields are written shows here.
// ---------------------------------------------------------------------------

struct GoldenPlan {
  std::string_view name;
  std::string_view text;    ///< SerializePlanWire(kText)
  std::string_view binary;  ///< SerializePlanWire(kBinary); empty = same as text
  std::string_view label;   ///< NodeLabel()
};

using namespace std::literals;  // NOLINT: "..."sv keeps the NULs of NXB1

const GoldenPlan kGoldenPlans[] = {
    {"scan",
     "(scan \"emp\")",
     {},
     "scan[emp]"},
    {"values",
     "(values (dataset (schema (field \"k\" int64) (field \"v\" float64) (field \"s\" string) (field \"b\" bool)) (rows (1 2.5 \"a b\" true) (-7 null \"q\\\"uote\" null) (null -0.125 null false))))",
     "(values #126:NXB1\001\000\000\004\000\001\000\001\000k\002\000\001\000v\003\000\001\000s\000\000\001\000b\003\000\000\000\000\000\000\000\001\004\003\013\000\000\000\371\377\377\377\377\377\377\377\004\010\007\001\002\000\030\000\000\000\000\000\000\000\000\000\004@\000\000\000\000\000\000\000\000\000\000\000\000\000\000\300\277\001\004\000\031\000\000\000\000\000\000\000\003\000\000\000\011\000\000\000\011\000\000\000a bq\"uote\001\002\000\001\000\000\000\001)"sv,
     "values[3 rows]"},
    {"loopvar",
     "(loopvar curr)",
     {},
     "loopvar"},
    {"loopvar_prev",
     "(loopvar prev)",
     {},
     "loopvar[prev]"},
    {"select",
     "(select (scan \"emp\") (and (> (col \"age\") (i64 30)) (not (col \"retired\"))))",
     {},
     "select[((age > 30) and not retired)]"},
    {"project",
     "(project (scan \"emp\") \"name\" \"age\")",
     {},
     "project[name, age]"},
    {"extend",
     "(extend (scan \"emp\") (def \"x\" (+ (col \"a\") (f64 1.5))) (def \"y\" (call \"pow\" (col \"a\") (i64 2))))",
     {},
     "extend[x := (a + 1.5), y := pow(a, 2)]"},
    {"join",
     "(join (scan \"emp\") (scan \"dept\") inner (keys (\"dept_id\" \"id\")) none)",
     {},
     "join[inner, dept_id=id]"},
    {"join_residual",
     "(join (scan \"emp\") (scan \"dept\") left (keys (\"dept_id\" \"id\") (\"site\" \"site\")) (> (col \"salary\") (col \"budget\")))",
     {},
     "join[left, dept_id=id, site=site, if (salary > budget)]"},
    {"aggregate",
     "(aggregate (scan \"emp\") (by \"dept\" \"site\") (agg sum \"total\" (col \"salary\")) (agg count \"n\" none) (agg avg \"mean\" (+ (col \"a\") (col \"b\"))))",
     {},
     "aggregate[by dept, site; total := sum(salary), n := count(*), mean := avg((a + b))]"},
    {"sort",
     "(sort (scan \"emp\") (key \"dept\" asc) (key \"salary\" desc))",
     {},
     "sort[dept asc, salary desc]"},
    {"limit",
     "(limit (scan \"emp\") 10 5)",
     {},
     "limit[10 offset 5]"},
    {"distinct",
     "(distinct (scan \"emp\"))",
     {},
     "distinct"},
    {"union",
     "(union (scan \"emp\") (scan \"emp2\"))",
     {},
     "union"},
    {"rename",
     "(rename (scan \"emp\") (map \"a\" \"b\") (map \"c\" \"d\"))",
     {},
     "rename[a -> b, c -> d]"},
    {"rebox",
     "(rebox (scan \"grid\") 32 \"i\" \"j\")",
     {},
     "rebox[i, j chunk 32]"},
    {"unbox",
     "(unbox (scan \"grid\"))",
     {},
     "unbox"},
    {"slice",
     "(slice (scan \"grid\") (range \"i\" 0 10) (range \"j\" -5 5))",
     {},
     "slice[i in [0, 10), j in [-5, 5)]"},
    {"shift",
     "(shift (scan \"grid\") (off \"i\" 3) (off \"j\" -2))",
     {},
     "shift[i+3, j-2]"},
    {"regrid",
     "(regrid (scan \"grid\") sum (factor \"i\" 4) (factor \"j\" 2))",
     {},
     "regrid[i/4, j/2 sum]"},
    {"transpose",
     "(transpose (scan \"grid\") \"j\" \"i\")",
     {},
     "transpose[j, i]"},
    {"window",
     "(window (scan \"grid\") max (radius \"i\" 1) (radius \"j\" 2))",
     {},
     "window[i±1, j±2 max]"},
    {"elemwise",
     "(elemwise (scan \"grid\") (scan \"grid2\") *)",
     {},
     "elemwise[*]"},
    {"matmul",
     "(matmul (scan \"A\") (scan \"B\") \"prod\")",
     {},
     "matmul[-> prod]"},
    {"pagerank",
     "(pagerank (scan \"edges\") \"from\" \"to\" 0.90000000000000002 25 9.9999999999999995e-07)",
     {},
     "pagerank[from -> to, d=0.9, iters<=25]"},
    {"iterate",
     "(iterate (scan \"state0\") (extend (loopvar curr) (def \"v\" (* (col \"v\") (f64 0.5)))) (aggregate (loopvar prev) (by) (agg sum \"delta\" (col \"v\"))) 0.001 40)",
     {},
     "iterate[<=40 iters, eps=0.001]"},
    {"iterate_no_measure",
     "(iterate (scan \"s\") (select (loopvar curr) (> (col \"v\") (i64 0))) none 0.0 3)",
     {},
     "iterate[<=3 iters, eps=0]"},
    {"exchange",
     "(exchange (scan \"emp\") \"arraydb\" direct)",
     {},
     "exchange[to arraydb, direct]"},
    {"exchange_relay",
     "(exchange (scan \"emp\") \"client\" relay)",
     {},
     "exchange[to client, relay]"},
};

TEST(PlanWireGoldenTest, CoversEveryOpKind) {
  std::set<OpKind> seen;
  for (const auto& [name, plan] : testing::PlanPerOpKind()) seen.insert(plan->kind());
  for (OpKind kind : AllOpKinds()) {
    EXPECT_TRUE(seen.count(kind)) << "no plan for " << OpKindName(kind);
  }
}

TEST(PlanWireGoldenTest, WireBytesLabelsAndRoundTrip) {
  std::vector<testing::NamedPlan> plans = testing::PlanPerOpKind();
  ASSERT_EQ(plans.size(), std::size(kGoldenPlans));
  for (size_t i = 0; i < plans.size(); ++i) {
    const GoldenPlan& want = kGoldenPlans[i];
    const Plan& plan = *plans[i].plan;
    SCOPED_TRACE(plans[i].name);
    ASSERT_EQ(plans[i].name, want.name);
    std::string text = SerializePlanWire(plan, WireFormat::kText);
    std::string binary = SerializePlanWire(plan, WireFormat::kBinary);
    EXPECT_EQ(text, want.text);
    EXPECT_EQ(binary, want.binary.empty() ? want.text : want.binary);
    EXPECT_EQ(plan.NodeLabel(), want.label);
    for (const std::string& wire : {text, binary}) {
      ASSERT_OK_AND_ASSIGN(PlanPtr back, ParsePlan(wire));
      EXPECT_TRUE(plan.Equals(*back)) << wire;
    }
  }
}

// ---------------------------------------------------------------------------
// NXB1: the binary columnar wire format.
// ---------------------------------------------------------------------------

void ExpectNxb1RoundTrip(const Dataset& d) {
  std::string wire = SerializeDatasetWire(d, WireFormat::kBinary);
  ASSERT_GE(wire.size(), 4u);
  EXPECT_EQ(wire.substr(0, 4), "NXB1");
  ASSERT_OK_AND_ASSIGN(Dataset back, ParseDatasetWire(wire));
  EXPECT_TRUE(back.LogicallyEquals(d)) << "binary round trip changed values";
  // The binary and textual wires decode to the same logical dataset.
  ASSERT_OK_AND_ASSIGN(Dataset text_back, ParseDataset(SerializeDataset(d)));
  EXPECT_TRUE(back.LogicallyEquals(text_back));
  // Deterministic: equal datasets encode to equal bytes.
  EXPECT_EQ(SerializeDatasetWire(back, WireFormat::kBinary), wire);
}

TEST(Nxb1Test, AllColumnTypesWithNulls) {
  SchemaPtr s = MakeSchema({Field::Attr("name", DataType::kString),
                            Field::Attr("age", DataType::kInt64),
                            Field::Attr("score", DataType::kFloat64),
                            Field::Attr("ok", DataType::kBool)});
  TablePtr t = MakeTable(s, {{S("ann"), I(31), F(0.5), testing::B(true)},
                             {N(), N(), N(), N()},
                             {S(""), I(-9), F(-2.25), testing::B(false)},
                             {S("bob"), I(1L << 40), N(), testing::B(true)}});
  ExpectNxb1RoundTrip(Dataset(t));
  ASSERT_OK_AND_ASSIGN(
      Dataset back,
      ParseDatasetWire(SerializeDatasetWire(Dataset(t), WireFormat::kBinary)));
  const TablePtr& bt = back.table();
  EXPECT_TRUE(bt->column(0).IsNull(1));
  EXPECT_TRUE(bt->column(2).IsNull(3));
  EXPECT_FALSE(bt->column(0).IsNull(2));
}

TEST(Nxb1Test, EmptyTable) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("b", DataType::kString)});
  ExpectNxb1RoundTrip(Dataset(MakeTable(s, {})));
}

TEST(Nxb1Test, NonAsciiAndHostileStrings) {
  SchemaPtr s = MakeSchema({Field::Attr("txt", DataType::kString)});
  std::string nul("with\0nul", 8);
  TablePtr t = MakeTable(
      s, {{S("héllo wörld")}, {S("日本語テキスト")}, {S(nul)},
          {S("quote\" paren) hash# newline\n")}, {S("#7:decoy")}, {S("")}});
  ExpectNxb1RoundTrip(Dataset(t));
  ASSERT_OK_AND_ASSIGN(
      Dataset back,
      ParseDatasetWire(SerializeDatasetWire(Dataset(t), WireFormat::kBinary)));
  EXPECT_EQ(back.table()->column(0).strings()[2], nul);
}

TEST(Nxb1Test, ArrayChunkGeometrySurvives) {
  SchemaPtr s = MakeSchema({Field::Dim("i"), Field::Attr("v", DataType::kFloat64)});
  TablePtr t = MakeTable(s, {{I(0), F(1.0)}, {I(7), F(2.0)}, {I(9), F(3.0)}});
  ASSERT_OK_AND_ASSIGN(NDArrayPtr arr, Dataset(t).AsArray(4));
  Dataset d(arr);
  ExpectNxb1RoundTrip(d);
  ASSERT_OK_AND_ASSIGN(
      Dataset back, ParseDatasetWire(SerializeDatasetWire(d, WireFormat::kBinary)));
  ASSERT_TRUE(back.is_array());
  EXPECT_EQ(back.array()->dim(0).chunk_size, 4);
  EXPECT_TRUE(back.array()->Equals(*arr));
}

TEST(Nxb1Test, EncodingFriendlyShapesRoundTripAndShrink) {
  // Sorted timestamps (frame-of-reference), a near-constant column (RLE),
  // and low-cardinality strings (dictionary): the shapes the block encoders
  // exist for. The encoded wire must beat the text form handily.
  SchemaPtr s = MakeSchema({Field::Attr("ts", DataType::kInt64),
                            Field::Attr("level", DataType::kInt64),
                            Field::Attr("host", DataType::kString),
                            Field::Attr("lat", DataType::kFloat64)});
  TableBuilder tb(s);
  Rng rng(99);
  int64_t ts = 1700000000000;
  for (int i = 0; i < 2000; ++i) {
    ts += rng.NextInt(1, 40);
    ASSERT_OK(tb.AppendRow({I(ts), I(i % 97 == 0 ? 2 : 0),
                            S(StrCat("host-", rng.NextInt(0, 7))),
                            F(rng.NextDouble(0.0, 1.0))}));
  }
  Dataset d(tb.Finish().ValueOrDie());
  ExpectNxb1RoundTrip(d);
  std::string binary = SerializeDatasetWire(d, WireFormat::kBinary);
  std::string text = SerializeDatasetWire(d, WireFormat::kText);
  // The raw float64 column bounds the ratio here (random doubles do not
  // compress); the E13 bench measures the full ≥5x claim on realistic logs.
  EXPECT_LT(binary.size() * 4, text.size())
      << "binary " << binary.size() << " vs text " << text.size();
}

TEST(Nxb1Test, SeededPropertyRoundTrip) {
  Rng rng(4242);
  for (int round = 0; round < 25; ++round) {
    SchemaPtr s = MakeSchema({Field::Attr("i", DataType::kInt64),
                              Field::Attr("f", DataType::kFloat64),
                              Field::Attr("s", DataType::kString),
                              Field::Attr("b", DataType::kBool)});
    TableBuilder tb(s);
    int rows = static_cast<int>(rng.NextInt(0, 120));
    double null_p = rng.NextDouble(0.0, 0.4);
    for (int r = 0; r < rows; ++r) {
      Value iv = rng.NextBool(null_p) ? N() : I(rng.NextInt(-1000000, 1000000));
      Value fv = rng.NextBool(null_p) ? N() : F(rng.NextDouble(-50, 50));
      Value sv = rng.NextBool(null_p)
                     ? N()
                     : S(StrCat("s", rng.NextInt(0, rng.NextBool(0.5) ? 3 : 500)));
      Value bv = rng.NextBool(null_p) ? N() : testing::B(rng.NextBool(0.5));
      ASSERT_OK(tb.AppendRow({iv, fv, sv, bv}));
    }
    ExpectNxb1RoundTrip(Dataset(tb.Finish().ValueOrDie()));
  }
}

TEST(Nxb1Test, EveryTruncationIsRejected) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("t", DataType::kString)});
  TablePtr t = MakeTable(s, {{I(5), S("abc")}, {N(), S("defgh")}, {I(7), N()}});
  std::string wire = SerializeDatasetWire(Dataset(t), WireFormat::kBinary);
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(ParseDatasetWire(std::string_view(wire).substr(0, n)).ok())
        << "prefix of " << n << " bytes parsed";
  }
  // Trailing garbage is rejected too — a frame is exactly its payload.
  EXPECT_FALSE(ParseDatasetWire(wire + "x").ok());
}

TEST(Nxb1Test, CorruptBytesNeverCrash) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("t", DataType::kString)});
  TablePtr t = MakeTable(s, {{I(5), S("abcabcabc")}, {I(6), S("abcabcabc")}});
  std::string wire = SerializeDatasetWire(Dataset(t), WireFormat::kBinary);
  int rejected = 0;
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    for (unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string bad = wire;
      bad[pos] = static_cast<char>(bad[pos] ^ flip);
      if (!ParseDatasetWire(bad).ok()) ++rejected;  // must not crash
    }
  }
  EXPECT_GT(rejected, 0);
  // Corrupting the magic always fails cleanly (falls through to the text
  // parser, which chokes on the binary tail).
  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseDatasetWire(bad_magic).ok());
}

TEST(Nxb1Test, BinaryPlanWireRoundTrip) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  PlanPtr p = Plan::Select(
      Plan::Join(Plan::Scan("orders"),
                 Plan::Values(Dataset(MakeTable(s, {{I(1), F(2.0)},
                                                    {N(), F(-0.5)}}))),
                 JoinType::kInner, {"k"}, {"k"}),
      Gt(Col("v"), Lit(0.0)));
  std::string binary = SerializePlanWire(*p, WireFormat::kBinary);
  std::string text = SerializePlanWire(*p, WireFormat::kText);
  EXPECT_NE(binary, text);  // the Values payload rides as an NXB1 blob
  ASSERT_OK_AND_ASSIGN(PlanPtr from_binary, ParsePlan(binary));
  ASSERT_OK_AND_ASSIGN(PlanPtr from_text, ParsePlan(text));
  EXPECT_TRUE(from_binary->Equals(*p));
  EXPECT_TRUE(from_binary->Equals(*from_text));
}

TEST(Nxb1Test, FingerprintsAreStableAndDistinct) {
  PlanPtr p1 = Plan::Select(Plan::Scan("t"), Gt(Col("v"), Lit(1.0)));
  PlanPtr p2 = Plan::Select(Plan::Scan("t"), Gt(Col("v"), Lit(2.0)));
  std::string w1 = SerializePlanWire(*p1, WireFormat::kBinary);
  std::string w2 = SerializePlanWire(*p2, WireFormat::kBinary);
  EXPECT_NE(FingerprintWire(w1), 0u);  // 0 is reserved for "none"
  EXPECT_EQ(FingerprintWire(w1), FingerprintWire(w1));
  EXPECT_EQ(FingerprintWire(w1),
            FingerprintWire(SerializePlanWire(*p1, WireFormat::kBinary)));
  EXPECT_NE(FingerprintWire(w1), FingerprintWire(w2));
}

TEST(Nxb1Test, WireEnvelopeRoundTrip) {
  std::string plan_wire = "(scan \"t\")";
  std::string b1 = "NXB1-payload-one";
  std::string b2;  // empty payloads are legal
  std::string env = BuildWireEnvelope(WireEnvelope::Kind::kPlanStore, 77,
                                      {{"__nxbind_0_curr", b1},
                                       {"__nxbind_0_prev", b2}},
                                      plan_wire);
  ASSERT_OK_AND_ASSIGN(WireEnvelope e, ParseWireEnvelope(env));
  EXPECT_EQ(e.kind, WireEnvelope::Kind::kPlanStore);
  EXPECT_EQ(e.fingerprint, 77u);
  ASSERT_EQ(e.bindings.size(), 2u);
  EXPECT_EQ(e.bindings[0].first, "__nxbind_0_curr");
  EXPECT_EQ(e.bindings[0].second, b1);
  EXPECT_EQ(e.bindings[1].second, b2);
  EXPECT_EQ(e.plan_wire, plan_wire);

  std::string exec =
      BuildWireEnvelope(WireEnvelope::Kind::kExecCached, 77, {}, "");
  ASSERT_OK_AND_ASSIGN(WireEnvelope x, ParseWireEnvelope(exec));
  EXPECT_EQ(x.kind, WireEnvelope::Kind::kExecCached);
  EXPECT_TRUE(x.bindings.empty());
  // An exec reference is exactly its envelope: trailing bytes are an error.
  EXPECT_FALSE(ParseWireEnvelope(exec + "junk").ok());

  // A bare plan passes through untouched.
  ASSERT_OK_AND_ASSIGN(WireEnvelope bare, ParseWireEnvelope(plan_wire));
  EXPECT_EQ(bare.kind, WireEnvelope::Kind::kNone);
  EXPECT_EQ(bare.plan_wire, plan_wire);
}

}  // namespace
}  // namespace nexus
