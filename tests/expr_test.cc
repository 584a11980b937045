// Unit + property tests for the scalar expression language: type inference,
// row evaluation, vectorized evaluation, and row/vector agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "expr/bytecode.h"
#include "expr/eval.h"
#include "expr/vm.h"
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

SchemaPtr TestSchema() {
  return MakeSchema({Field::Attr("a", DataType::kInt64),
                     Field::Attr("b", DataType::kFloat64),
                     Field::Attr("s", DataType::kString),
                     Field::Attr("flag", DataType::kBool)});
}

Value EvalOn(const ExprPtr& e, const std::vector<Value>& row) {
  auto r = EvalExprRow(*e, *TestSchema(), row);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOrDie();
}

const std::vector<Value> kRow = {I(6), F(2.5), S("hi"), B(true)};

TEST(ExprTypeTest, Basics) {
  SchemaPtr s = TestSchema();
  EXPECT_EQ(InferExprType(*Add(Col("a"), Lit(1)), *s).ValueOrDie(),
            DataType::kInt64);
  EXPECT_EQ(InferExprType(*Add(Col("a"), Col("b")), *s).ValueOrDie(),
            DataType::kFloat64);
  EXPECT_EQ(InferExprType(*Div(Col("a"), Lit(2)), *s).ValueOrDie(),
            DataType::kFloat64);
  EXPECT_EQ(InferExprType(*Lt(Col("a"), Col("b")), *s).ValueOrDie(),
            DataType::kBool);
  EXPECT_EQ(InferExprType(*Add(Col("s"), Lit("!")), *s).ValueOrDie(),
            DataType::kString);
  EXPECT_EQ(InferExprType(*Cast(DataType::kString, Col("a")), *s).ValueOrDie(),
            DataType::kString);
}

TEST(ExprTypeTest, Errors) {
  SchemaPtr s = TestSchema();
  EXPECT_FALSE(InferExprType(*Add(Col("a"), Col("s")), *s).ok());
  EXPECT_FALSE(InferExprType(*Col("zz"), *s).ok());
  EXPECT_FALSE(InferExprType(*And(Col("a"), Col("flag")), *s).ok());
  EXPECT_FALSE(InferExprType(*Not(Col("a")), *s).ok());
  EXPECT_FALSE(InferExprType(*Mod(Col("b"), Lit(2)), *s).ok());
  EXPECT_FALSE(InferExprType(*Lt(Col("s"), Col("a")), *s).ok());
  EXPECT_FALSE(InferExprType(*Func("nope", {Col("a")}), *s).ok());
  EXPECT_FALSE(InferExprType(*Func("sqrt", {Col("s")}), *s).ok());
  EXPECT_FALSE(InferExprType(*Func("abs", {Col("a"), Col("a")}), *s).ok());
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalOn(Add(Col("a"), Lit(2)), kRow), I(8));
  EXPECT_EQ(EvalOn(Mul(Col("a"), Col("b")), kRow), F(15.0));
  EXPECT_EQ(EvalOn(Sub(Lit(10), Col("a")), kRow), I(4));
  EXPECT_EQ(EvalOn(Div(Col("a"), Lit(4)), kRow), F(1.5));
  EXPECT_EQ(EvalOn(Mod(Col("a"), Lit(4)), kRow), I(2));
  EXPECT_EQ(EvalOn(Neg(Col("b")), kRow), F(-2.5));
}

TEST(ExprEvalTest, DivisionByZeroYieldsNull) {
  EXPECT_TRUE(EvalOn(Div(Col("a"), Lit(0)), kRow).is_null());
  EXPECT_TRUE(EvalOn(Mod(Col("a"), Lit(0)), kRow).is_null());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_EQ(EvalOn(Lt(Col("a"), Lit(7)), kRow), B(true));
  EXPECT_EQ(EvalOn(Ge(Col("b"), Lit(2.5)), kRow), B(true));
  EXPECT_EQ(EvalOn(Eq(Col("a"), Lit(6.0)), kRow), B(true));  // cross-kind
  EXPECT_EQ(EvalOn(Ne(Col("s"), Lit("hi")), kRow), B(false));
}

TEST(ExprEvalTest, StringOps) {
  EXPECT_EQ(EvalOn(Add(Col("s"), Lit("!")), kRow), S("hi!"));
  EXPECT_EQ(EvalOn(Func("length", {Col("s")}), kRow), I(2));
  EXPECT_EQ(EvalOn(Func("upper", {Col("s")}), kRow), S("HI"));
  EXPECT_EQ(EvalOn(Func("concat", {Col("s"), Lit("-"), Col("s")}), kRow),
            S("hi-hi"));
  EXPECT_EQ(EvalOn(Func("substr", {Lit("hello"), Lit(1), Lit(3)}), kRow),
            S("ell"));
}

TEST(ExprEvalTest, MathFunctions) {
  EXPECT_EQ(EvalOn(Func("abs", {Lit(-4)}), kRow), I(4));
  EXPECT_EQ(EvalOn(Func("sqrt", {Lit(9.0)}), kRow), F(3.0));
  EXPECT_TRUE(EvalOn(Func("sqrt", {Lit(-1.0)}), kRow).is_null());
  EXPECT_TRUE(EvalOn(Func("log", {Lit(0.0)}), kRow).is_null());
  EXPECT_EQ(EvalOn(Func("pow", {Lit(2.0), Lit(10.0)}), kRow), F(1024.0));
  EXPECT_EQ(EvalOn(Func("floor", {Lit(2.7)}), kRow), I(2));
  EXPECT_EQ(EvalOn(Func("ceil", {Lit(2.1)}), kRow), I(3));
  EXPECT_EQ(EvalOn(Func("round", {Lit(2.5)}), kRow), I(3));
  EXPECT_EQ(EvalOn(Func("min", {Lit(3), Lit(1), Lit(2)}), kRow), I(1));
  EXPECT_EQ(EvalOn(Func("max", {Col("a"), Col("b")}), kRow), I(6));
  EXPECT_EQ(EvalOn(Func("sign", {Lit(-3.5)}), kRow), F(-1.0));
}

TEST(ExprEvalTest, Conditionals) {
  EXPECT_EQ(EvalOn(Func("if", {Col("flag"), Lit(1), Lit(2)}), kRow), I(1));
  EXPECT_EQ(EvalOn(Func("if", {Not(Col("flag")), Lit(1), Lit(2)}), kRow), I(2));
  EXPECT_EQ(EvalOn(Func("coalesce", {NullLit(), Lit(5)}), kRow), I(5));
  EXPECT_EQ(EvalOn(Func("is_null", {NullLit()}), kRow), B(true));
  EXPECT_EQ(EvalOn(Func("is_null", {Col("a")}), kRow), B(false));
}

TEST(ExprEvalTest, ThreeValuedLogic) {
  // false AND null = false; true AND null = null.
  EXPECT_EQ(EvalOn(And(Lit(false), Cast(DataType::kBool, NullLit())), kRow),
            B(false));
  EXPECT_TRUE(EvalOn(And(Lit(true), Cast(DataType::kBool, NullLit())), kRow)
                  .is_null());
  // true OR null = true; false OR null = null.
  EXPECT_EQ(EvalOn(Or(Lit(true), Cast(DataType::kBool, NullLit())), kRow),
            B(true));
  EXPECT_TRUE(EvalOn(Or(Lit(false), Cast(DataType::kBool, NullLit())), kRow)
                  .is_null());
  // Comparisons with null are null.
  EXPECT_TRUE(EvalOn(Lt(NullLit(), Lit(1.0)), kRow).is_null());
}

TEST(ExprEvalTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(EvalOn(Add(NullLit(), Lit(1.0)), kRow).is_null());
  EXPECT_TRUE(EvalOn(Func("sqrt", {NullLit()}), kRow).is_null());
}

TEST(ExprStructureTest, EqualsAndHash) {
  ExprPtr a = Add(Col("x"), Lit(1));
  ExprPtr b = Add(Col("x"), Lit(1));
  ExprPtr c = Add(Col("x"), Lit(2));
  ExprPtr d = Add(Col("x"), Lit(1.0));  // different literal kind
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(*d));
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_NE(a->Hash(), c->Hash());
}

TEST(ExprStructureTest, ColumnRefsAndRename) {
  ExprPtr e = And(Gt(Col("x"), Col("y")), Lt(Col("x"), Lit(9)));
  EXPECT_EQ(e->ColumnRefs(), (std::vector<std::string>{"x", "y"}));
  ExprPtr r = e->RenameColumns({{"x", "z"}});
  EXPECT_EQ(r->ColumnRefs(), (std::vector<std::string>{"z", "y"}));
  EXPECT_EQ(r->ToString(), "((z > y) and (z < 9))");
}

TEST(ExprStructureTest, SubstituteInlinesDefinitions) {
  ExprPtr e = Gt(Col("total"), Lit(10));
  ExprPtr inlined = e->SubstituteColumns({{"total", Add(Col("a"), Col("b"))}});
  EXPECT_EQ(inlined->ToString(), "((a + b) > 10)");
}

TEST(ExprStructureTest, ToString) {
  EXPECT_EQ(Add(Col("a"), Mul(Col("b"), Lit(2)))->ToString(), "(a + (b * 2))");
  EXPECT_EQ(Func("abs", {Neg(Col("a"))})->ToString(), "abs(-a)");
  EXPECT_EQ(Cast(DataType::kInt64, Col("b"))->ToString(), "cast(b as int64)");
}

TEST(ExprVectorTest, MatchesRowEvaluation) {
  SchemaPtr s = TestSchema();
  TablePtr t = MakeTable(
      s, {{I(1), F(0.5), S("a"), B(true)},
          {I(-3), F(2.0), S("bb"), B(false)},
          {N(), F(-1.0), S(""), B(true)},
          {I(100), N(), S("ccc"), B(false)}});
  std::vector<ExprPtr> cases = {
      Add(Col("a"), Lit(1)),
      Mul(Col("b"), Col("b")),
      And(Gt(Col("a"), Lit(0)), Col("flag")),
      Func("coalesce", {Col("a"), Lit(0)}),
      Func("if", {Col("flag"), Col("b"), Neg(Col("b"))}),
      Add(Col("s"), Lit("!")),
      Div(Col("a"), Col("b")),
  };
  for (const ExprPtr& e : cases) {
    ASSERT_OK_AND_ASSIGN(Column vec, EvalExprVector(*e, *t));
    ASSERT_OK_AND_ASSIGN(DataType out_t, InferExprType(*e, *s));
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      ASSERT_OK_AND_ASSIGN(Value row_v, EvalExprRow(*e, *s, t->Row(r)));
      if (row_v.is_null()) {
        EXPECT_TRUE(vec.GetValue(r).is_null()) << e->ToString() << " row " << r;
      } else {
        ASSERT_OK_AND_ASSIGN(Value want, row_v.CastTo(out_t));
        EXPECT_EQ(vec.GetValue(r), want) << e->ToString() << " row " << r;
      }
    }
  }
}

// Property sweep: random numeric expressions evaluated both ways must agree
// on a null-free numeric table (the vectorized fast path's home turf).
class ExprFuzzTest : public ::testing::TestWithParam<int> {};

ExprPtr RandomNumericExpr(Rng* rng, int depth) {
  if (depth == 0 || rng->NextBool(0.3)) {
    switch (rng->NextBounded(3)) {
      case 0:
        return Col("a");
      case 1:
        return Col("b");
      default:
        return rng->NextBool() ? Lit(rng->NextInt(-5, 5))
                               : Lit(rng->NextDouble(-2.0, 2.0));
    }
  }
  static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul};
  return Expr::Binary(kOps[rng->NextBounded(3)], RandomNumericExpr(rng, depth - 1),
                      RandomNumericExpr(rng, depth - 1));
}

TEST_P(ExprFuzzTest, VectorAgreesWithRowInterpreter) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64),
                            Field::Attr("b", DataType::kFloat64)});
  TableBuilder builder(s);
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(builder.AppendRow(
        {I(rng.NextInt(-1000, 1000)), F(rng.NextDouble(-10.0, 10.0))}));
  }
  ASSERT_OK_AND_ASSIGN(TablePtr t, builder.Finish());
  for (int trial = 0; trial < 20; ++trial) {
    ExprPtr e = RandomNumericExpr(&rng, 4);
    ASSERT_OK_AND_ASSIGN(Column vec, EvalExprVector(*e, *t));
    ASSERT_OK_AND_ASSIGN(DataType out_t, InferExprType(*e, *s));
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      ASSERT_OK_AND_ASSIGN(Value row_v, EvalExprRow(*e, *s, t->Row(r)));
      ASSERT_OK_AND_ASSIGN(Value want, row_v.CastTo(out_t));
      if (out_t == DataType::kFloat64) {
        EXPECT_NEAR(vec.GetValue(r).AsDouble(), want.AsDouble(),
                    1e-9 * (1.0 + std::fabs(want.AsDouble())))
            << e->ToString();
      } else {
        EXPECT_EQ(vec.GetValue(r), want) << e->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzzTest, ::testing::Range(0, 8));

TEST(EvalPredicateTest, SelectsMatchingRows) {
  SchemaPtr s = MakeSchema({Field::Attr("a", DataType::kInt64)});
  TablePtr t = MakeTable(s, {{I(1)}, {N()}, {I(5)}, {I(3)}});
  ASSERT_OK_AND_ASSIGN(auto sel, EvalPredicate(*Ge(Col("a"), Lit(3)), *t));
  EXPECT_EQ(sel, (std::vector<int64_t>{2, 3}));  // null row excluded
  EXPECT_FALSE(EvalPredicate(*Add(Col("a"), Lit(1)), *t).ok());  // non-bool
}

TEST(BuiltinsTest, CatalogNonEmptyAndInferable) {
  std::vector<std::string> names = BuiltinFunctionNames();
  EXPECT_GE(names.size(), 20u);
  // Every builtin must have at least one valid signature we can infer.
  SchemaPtr s = TestSchema();
  int inferable = 0;
  for (const std::string& name : names) {
    for (const std::vector<DataType>& args :
         {std::vector<DataType>{DataType::kFloat64},
          std::vector<DataType>{DataType::kFloat64, DataType::kFloat64},
          std::vector<DataType>{DataType::kBool, DataType::kInt64, DataType::kInt64},
          std::vector<DataType>{DataType::kString},
          std::vector<DataType>{DataType::kString, DataType::kInt64, DataType::kInt64}}) {
      if (InferFuncType(name, args).ok()) {
        ++inferable;
        break;
      }
    }
  }
  EXPECT_EQ(inferable, static_cast<int>(names.size()));
}

// ---------------------------------------------------------------------------
// Register bytecode + VM (expr/bytecode.h, expr/vm.h).
// ---------------------------------------------------------------------------

Column RunCompiled(const ExprPtr& e, const TablePtr& t) {
  auto prog = CompileExpr(e, *t->schema());
  EXPECT_TRUE(prog.ok()) << prog.status() << " for " << e->ToString();
  const ExprProgram& p = prog.ValueOrDie();
  ExprVM vm(&p);
  vm.Bind(*t, t->num_rows());
  vm.Run(0, t->num_rows());
  Column out(p.out_types[0]);
  vm.AppendOutput(0, &out);
  return out;
}

TEST(BytecodeTest, CompiledProgramMatchesRowInterpreter) {
  SchemaPtr s = TestSchema();
  TablePtr t = MakeTable(
      s, {{I(1), F(0.5), S("a"), B(true)},
          {I(-3), F(2.0), S("bb"), B(false)},
          {N(), F(-1.0), S(""), B(true)},
          {I(100), N(), S("Ccc"), N()},
          {I(7), F(0.0), N(), B(false)},
          // Value::Compare's float edges: NaN compares equal to everything,
          // -0.0 equals +0.0.
          {I(2), F(std::nan("")), S("n"), B(true)},
          {I(0), F(-0.0), S("z"), B(false)},
          {I(-1), F(std::numeric_limits<double>::infinity()), S("i"), B(true)}});
  std::vector<ExprPtr> cases = {
      // Every comparison predicate on the double column.
      Eq(Col("b"), Lit(0.0)),
      Ne(Col("b"), Lit(0.0)),
      Lt(Col("b"), Lit(1.0)),
      Le(Col("b"), Lit(0.0)),
      Gt(Col("b"), Neg(Col("b"))),
      Ge(Col("b"), Lit(2.0)),
      Add(Col("a"), Lit(1)),
      Mul(Add(Col("a"), Lit(2)), Sub(Col("a"), Lit(2))),
      Add(Col("a"), Col("b")),
      Div(Col("a"), Col("b")),        // always double; /0 → null
      Div(Col("a"), Lit(0)),
      Mod(Col("a"), Lit(3)),
      Neg(Col("b")),
      Not(Col("flag")),
      And(Gt(Col("a"), Lit(0)), Col("flag")),  // Kleene
      Or(Func("is_null", {Col("a")}), Col("flag")),
      Eq(Col("a"), Lit(1)),
      Lt(Col("a"), Col("b")),         // mixed compare → double, like Compare
      Le(Col("s"), Lit("b")),
      Func("abs", {Col("a")}),
      Func("sign", {Col("b")}),
      Func("sqrt", {Col("b")}),       // sqrt(neg) → null
      Func("log", {Col("b")}),        // log(≤0) → null
      Func("floor", {Col("b")}),
      Func("round", {Col("b")}),
      Func("pow", {Col("b"), Lit(2.0)}),
      Func("min", {Col("a"), Lit(5)}),
      Func("max", {Col("b"), Lit(1.5)}),
      Func("coalesce", {Col("a"), Lit(0)}),
      Func("if", {Col("flag"), Col("b"), Neg(Col("b"))}),
      Func("length", {Col("s")}),
      Func("concat", {Col("s"), Lit("!"), Col("s")}),
      Func("lower", {Col("s")}),
      Func("upper", {Col("s")}),
      Func("substr", {Col("s"), Lit(0), Lit(2)}),
      Cast(DataType::kFloat64, Col("a")),
      Cast(DataType::kString, Col("a")),
      Cast(DataType::kBool, Col("a")),
  };
  for (const ExprPtr& e : cases) {
    Column got = RunCompiled(e, t);
    ASSERT_OK_AND_ASSIGN(DataType out_t, InferExprType(*e, *s));
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      ASSERT_OK_AND_ASSIGN(Value row_v, EvalExprRow(*e, *s, t->Row(r)));
      if (row_v.is_null()) {
        EXPECT_TRUE(got.GetValue(r).is_null()) << e->ToString() << " row " << r;
      } else {
        ASSERT_OK_AND_ASSIGN(Value want, row_v.CastTo(out_t));
        EXPECT_EQ(got.GetValue(r), want) << e->ToString() << " row " << r;
      }
    }
  }
}

TEST(BytecodeTest, CommonSubtreesCompileOnce) {
  SchemaPtr s = TestSchema();
  ExprPtr shared = Mul(Add(Col("a"), Lit(1)), Lit(3));
  ASSERT_OK_AND_ASSIGN(
      ExprProgram p,
      CompileExprs({shared, Add(shared->Clone(), Lit(2)), Gt(shared->Clone(), Lit(0))},
                   *s));
  int muls = 0;
  for (const Instr& in : p.instrs) {
    if (in.op == OpCode::kMulInt) ++muls;
  }
  EXPECT_EQ(muls, 1) << p.ToString();  // the shared subtree lowered once
  EXPECT_EQ(p.outputs.size(), 3u);
}

TEST(BytecodeTest, RefusesWhatItCannotProveByteIdentical) {
  SchemaPtr s = TestSchema();
  // Runtime-fallible string parses.
  EXPECT_TRUE(CompileExpr(Cast(DataType::kInt64, Col("s")), *s).status()
                  .IsUnsupported());
  // Mixed int64/float64 min/if/coalesce pass values through with their
  // dynamic type in the interpreter — refused, not promoted.
  EXPECT_TRUE(CompileExpr(Func("min", {Col("a"), Col("b")}), *s).status()
                  .IsUnsupported());
  EXPECT_TRUE(
      CompileExpr(Func("if", {Col("flag"), Col("a"), Col("b")}), *s).status()
          .IsUnsupported());
  EXPECT_TRUE(CompileExpr(Func("coalesce", {Col("a"), Col("b")}), *s).status()
                  .IsUnsupported());
  // Plain type errors are kUnsupported too: the interpreter's own inference
  // reports them.
  EXPECT_TRUE(CompileExpr(Add(Col("a"), Col("s")), *s).status().IsUnsupported());
}

TEST(BytecodeTest, DisassemblyNamesEveryInstruction) {
  SchemaPtr s = TestSchema();
  ASSERT_OK_AND_ASSIGN(
      ExprProgram p,
      CompileExpr(And(Gt(Add(Col("a"), Lit(1)), Col("b")), Col("flag")), *s));
  std::string dis = p.ToString();
  EXPECT_NE(dis.find("load_col"), std::string::npos) << dis;
  EXPECT_NE(dis.find("add_i"), std::string::npos) << dis;
  EXPECT_NE(dis.find("and_b"), std::string::npos) << dis;
}

TEST(BytecodeTest, Int64ComparisonsAreExactBeyond2Pow53) {
  // 2^53 is the first integer double cannot distinguish from its successor;
  // both the compiled VM and the boxed interpreter must compare
  // statically-int64 operands exactly.
  constexpr int64_t kBig = int64_t{1} << 53;
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64),
                            Field::Attr("y", DataType::kInt64)});
  TablePtr t = MakeTable(s, {{I(kBig), I(kBig + 1)},
                             {I(kBig + 1), I(kBig)},
                             {I(-kBig - 1), I(-kBig)},
                             {I(kBig), I(kBig)}});
  struct Case {
    ExprPtr e;
    std::vector<bool> want;
  };
  std::vector<Case> cases;
  cases.push_back({Eq(Col("x"), Col("y")), {false, false, false, true}});
  cases.push_back({Ne(Col("x"), Col("y")), {true, true, true, false}});
  cases.push_back({Lt(Col("x"), Col("y")), {true, false, true, false}});
  cases.push_back({Ge(Col("x"), Col("y")), {false, true, false, true}});
  cases.push_back(
      {Eq(Add(Col("x"), Lit(1)), Col("y")), {true, false, true, false}});
  for (const Case& c : cases) {
    // The VM runs these: every case compiles.
    ASSERT_TRUE(GetOrCompileProgram(*c.e, *s).ok()) << c.e->ToString();
    ASSERT_OK_AND_ASSIGN(Column vm, EvalExprVector(*c.e, *t));
    ASSERT_OK_AND_ASSIGN(Column interp, EvalExprInterpreted(*c.e, *t));
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      EXPECT_EQ(vm.GetValue(r), B(c.want[static_cast<size_t>(r)]))
          << c.e->ToString() << " row " << r << " (vm)";
      EXPECT_EQ(interp.GetValue(r), B(c.want[static_cast<size_t>(r)]))
          << c.e->ToString() << " row " << r << " (interpreter)";
    }
  }
}

TEST(BytecodeTest, ProgramCacheReturnsSameProgram) {
  ClearProgramCacheForTest();
  SchemaPtr s = TestSchema();
  ExprPtr e = Mul(Add(Col("a"), Lit(1)), Lit(7));
  ASSERT_OK_AND_ASSIGN(ExprProgramPtr p1, GetOrCompileProgram(*e, *s));
  ASSERT_OK_AND_ASSIGN(ExprProgramPtr p2, GetOrCompileProgram(*e, *s));
  EXPECT_EQ(p1.get(), p2.get());  // second lookup is a cache hit
  // Negative caching: an uncompilable tree is refused from cache as well.
  ExprPtr bad = Cast(DataType::kInt64, Col("s"));
  EXPECT_TRUE(GetOrCompileProgram(*bad, *s).status().IsUnsupported());
  EXPECT_TRUE(GetOrCompileProgram(*bad, *s).status().IsUnsupported());
}

// ---------------------------------------------------------------------------
// Comparison identity: the VM's branch-free compares and selection against
// the boxed row interpreter, on the values where a compare could go wrong.
// ---------------------------------------------------------------------------

struct ThreadCountGuard {
  ThreadCountGuard() : saved(GetThreadCount()) {}
  ~ThreadCountGuard() { SetThreadCount(saved); }
  int saved;
};

// Every ordered pair of `values` as the rows of a two-column (x, y) table.
TablePtr PairTable(DataType type, const std::vector<Value>& values) {
  SchemaPtr s = MakeSchema({Field::Attr("x", type), Field::Attr("y", type)});
  std::vector<std::vector<Value>> rows;
  for (const Value& x : values) {
    for (const Value& y : values) rows.push_back({x, y});
  }
  return MakeTable(s, rows);
}

std::vector<ExprPtr> AllComparisons(const ExprPtr& l, const ExprPtr& r) {
  return {Eq(l, r), Ne(l, r), Lt(l, r), Le(l, r), Gt(l, r), Ge(l, r)};
}

void ExpectVectorMatchesInterpreter(const ExprPtr& e, const Table& t) {
  ASSERT_TRUE(GetOrCompileProgram(*e, *t.schema()).ok()) << e->ToString();
  ASSERT_OK_AND_ASSIGN(Column vm, EvalExprVector(*e, t));
  ASSERT_OK_AND_ASSIGN(Column interp, EvalExprInterpreted(*e, t));
  EXPECT_TRUE(vm.Equals(interp)) << e->ToString();
}

TEST(CompareIdentityTest, EveryPredicateMatchesInterpreterOnEdgeValues) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    DataType type;
    std::vector<Value> values;  // non-null
  };
  const std::vector<Case> cases = {
      {DataType::kInt64, {I(kMin), I(kMin + 1), I(-1), I(0), I(1), I(kMax - 1),
                          I(kMax)}},
      {DataType::kFloat64, {F(nan), F(-0.0), F(0.0), F(-kInf), F(kInf),
                            F(-1.5), F(1.5),
                            F(std::numeric_limits<double>::max())}},
      {DataType::kBool, {B(false), B(true)}},
  };
  for (const Case& c : cases) {
    std::vector<Value> with_null = c.values;
    with_null.push_back(N());
    // Without nulls the compare runs its no-null loop; with them, the
    // null-aware one (nulls on the left, the right, and both).
    for (const TablePtr& t : {PairTable(c.type, c.values),
                              PairTable(c.type, with_null)}) {
      SCOPED_TRACE(StrCat(DataTypeName(c.type), " rows=", t->num_rows()));
      for (const ExprPtr& e : AllComparisons(Col("x"), Col("y"))) {
        ExpectVectorMatchesInterpreter(e, *t);
      }
      // A literal operand is a broadcast constant register.
      for (const Value& v : c.values) {
        for (const ExprPtr& e :
             AllComparisons(Col("x"), Expr::Literal(v))) {
          ExpectVectorMatchesInterpreter(e, *t);
        }
      }
    }
  }
}

TEST(CompareIdentityTest, AndOrMatchInterpreterOverNulls) {
  const std::vector<Value> bools = {B(false), B(true)};
  const std::vector<Value> with_null = {B(false), B(true), N()};
  for (const TablePtr& t : {PairTable(DataType::kBool, bools),
                            PairTable(DataType::kBool, with_null)}) {
    ExpectVectorMatchesInterpreter(And(Col("x"), Col("y")), *t);
    ExpectVectorMatchesInterpreter(Or(Col("x"), Col("y")), *t);
    ExpectVectorMatchesInterpreter(
        And(Eq(Col("x"), Col("y")), Or(Col("x"), Not(Col("y")))), *t);
  }
  // Conjunctions of comparisons over NaN, infinities and nulls.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  TablePtr d = PairTable(DataType::kFloat64,
                         {F(nan), F(-inf), F(-0.0), F(0.0), F(2.0), N()});
  ExpectVectorMatchesInterpreter(
      And(Ge(Col("x"), Lit(0.0)), Lt(Col("y"), Lit(inf))), *d);
  ExpectVectorMatchesInterpreter(
      Or(Eq(Col("x"), Col("y")), Gt(Col("x"), Lit(-inf))), *d);
}

// A table of `rows` random rows with nulls, NaNs, infinities and the int64
// extremes sprinkled in.
TablePtr RandomPredicateTable(int64_t rows) {
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64),
                            Field::Attr("d", DataType::kFloat64),
                            Field::Attr("flag", DataType::kBool)});
  const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -0.0};
  Rng rng(static_cast<uint64_t>(rows) + 5);
  TableBuilder b(s);
  for (int64_t r = 0; r < rows; ++r) {
    Value x = rng.NextBool(0.02)
                  ? I(rng.NextBool() ? std::numeric_limits<int64_t>::min()
                                     : std::numeric_limits<int64_t>::max())
                  : I(rng.NextInt(-5, 5));
    Value d = rng.NextBool(0.05) ? F(special[rng.NextBounded(4)])
                                 : F(rng.NextDouble(-2.0, 2.0));
    std::vector<Value> row = {x, d, B(rng.NextBool())};
    if (rng.NextBool(0.1)) row[rng.NextBounded(3)] = N();
    EXPECT_OK(b.AppendRow(row));
  }
  return b.Finish().ValueOrDie();
}

TEST(CompareIdentityTest, PredicateSelectionMatchesRowInterpreter) {
  ThreadCountGuard guard;
  const std::vector<ExprPtr> preds = {
      Ge(Col("x"), Lit(0)),
      And(And(Ge(Col("x"), Lit(-2)), Lt(Col("d"), Lit(1.0))), Col("flag")),
      Or(Eq(Col("d"), Col("d")), Ne(Col("x"), Lit(3))),
      Le(Col("flag"), Gt(Col("d"), Lit(0.0))),
      // Refused by the compiler (mixed-type min): the boxed mask path.
      Gt(Func("min", {Col("x"), Col("d")}), Lit(0.0)),
  };
  for (int64_t rows : {int64_t{0}, int64_t{1}, kMorselRows - 1, kMorselRows,
                       kMorselRows + 1, 3 * kMorselRows + 7}) {
    TablePtr t = RandomPredicateTable(rows);
    for (const ExprPtr& p : preds) {
      std::vector<int64_t> want;
      for (int64_t r = 0; r < rows; ++r) {
        ASSERT_OK_AND_ASSIGN(Value v, EvalExprRow(*p, *t->schema(), t->Row(r)));
        if (!v.is_null() && v.AsBool()) want.push_back(r);
      }
      for (int threads : {1, 4}) {
        SetThreadCount(threads);
        ASSERT_OK_AND_ASSIGN(std::vector<int64_t> got, EvalPredicate(*p, *t));
        EXPECT_EQ(got, want) << p->ToString() << " rows=" << rows
                             << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace nexus
