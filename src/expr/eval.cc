#include "expr/eval.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/str_util.h"
#include "expr/bytecode.h"
#include "expr/vm.h"

namespace nexus {

namespace {

Result<Value> EvalUnary(UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNeg) {
    if (v.is_int64()) return Value::Int64(-v.AsInt64());
    if (v.is_float64()) return Value::Float64(-v.AsFloat64());
    return Status::TypeError("neg expects numeric");
  }
  if (!v.is_bool()) return Status::TypeError("not expects bool");
  return Value::Bool(!v.AsBool());
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (op == BinaryOp::kAdd && l.is_string() && r.is_string()) {
    return Value::String(l.AsString() + r.AsString());
  }
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::TypeError(StrCat("arithmetic on non-numeric values: ",
                                    l.ToString(), " ", BinaryOpName(op), " ",
                                    r.ToString()));
  }
  bool int_math = l.is_int64() && r.is_int64();
  switch (op) {
    case BinaryOp::kAdd:
      return int_math ? Value::Int64(l.AsInt64() + r.AsInt64())
                      : Value::Float64(l.AsDouble() + r.AsDouble());
    case BinaryOp::kSub:
      return int_math ? Value::Int64(l.AsInt64() - r.AsInt64())
                      : Value::Float64(l.AsDouble() - r.AsDouble());
    case BinaryOp::kMul:
      return int_math ? Value::Int64(l.AsInt64() * r.AsInt64())
                      : Value::Float64(l.AsDouble() * r.AsDouble());
    case BinaryOp::kDiv: {
      double d = r.AsDouble();
      if (d == 0.0) return Value::Null();  // division by zero yields null
      return Value::Float64(l.AsDouble() / d);
    }
    case BinaryOp::kMod: {
      if (!int_math) return Status::TypeError("% expects int64 operands");
      if (r.AsInt64() == 0) return Value::Null();
      return Value::Int64(l.AsInt64() % r.AsInt64());
    }
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<Value> EvalFunc(const std::string& func, std::vector<Value> args) {
  // Null-aware functions first.
  if (func == "is_null") return Value::Bool(args[0].is_null());
  if (func == "coalesce") {
    for (Value& a : args) {
      if (!a.is_null()) return std::move(a);
    }
    return Value::Null();
  }
  if (func == "if") {
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_bool()) return Status::TypeError("if: condition must be bool");
    return args[0].AsBool() ? std::move(args[1]) : std::move(args[2]);
  }
  // Everything else is strict in nulls.
  for (const Value& a : args) {
    if (a.is_null()) return Value::Null();
  }
  auto need_numeric = [&](size_t i) -> Status {
    if (!args[i].is_numeric()) {
      return Status::TypeError(StrCat(func, ": argument ", i, " must be numeric"));
    }
    return Status::OK();
  };
  if (func == "abs") {
    NEXUS_RETURN_NOT_OK(need_numeric(0));
    if (args[0].is_int64()) return Value::Int64(std::llabs(args[0].AsInt64()));
    return Value::Float64(std::fabs(args[0].AsFloat64()));
  }
  if (func == "sign") {
    NEXUS_RETURN_NOT_OK(need_numeric(0));
    double d = args[0].AsDouble();
    int64_t s = d > 0 ? 1 : (d < 0 ? -1 : 0);
    return args[0].is_int64() ? Value::Int64(s) : Value::Float64(static_cast<double>(s));
  }
  if (func == "sqrt" || func == "exp" || func == "log" || func == "sin" ||
      func == "cos") {
    NEXUS_RETURN_NOT_OK(need_numeric(0));
    double d = args[0].AsDouble();
    if (func == "sqrt") return d < 0 ? Value::Null() : Value::Float64(std::sqrt(d));
    if (func == "exp") return Value::Float64(std::exp(d));
    if (func == "log") return d <= 0 ? Value::Null() : Value::Float64(std::log(d));
    if (func == "sin") return Value::Float64(std::sin(d));
    return Value::Float64(std::cos(d));
  }
  if (func == "pow") {
    NEXUS_RETURN_NOT_OK(need_numeric(0));
    NEXUS_RETURN_NOT_OK(need_numeric(1));
    return Value::Float64(std::pow(args[0].AsDouble(), args[1].AsDouble()));
  }
  if (func == "floor" || func == "ceil" || func == "round") {
    NEXUS_RETURN_NOT_OK(need_numeric(0));
    double d = args[0].AsDouble();
    if (func == "floor") return Value::Int64(static_cast<int64_t>(std::floor(d)));
    if (func == "ceil") return Value::Int64(static_cast<int64_t>(std::ceil(d)));
    return Value::Int64(static_cast<int64_t>(std::llround(d)));
  }
  if (func == "min" || func == "max") {
    Value best = args[0];
    for (size_t i = 1; i < args.size(); ++i) {
      bool take = func == "min" ? args[i].Compare(best) < 0
                                : args[i].Compare(best) > 0;
      if (take) best = args[i];
    }
    return best;
  }
  if (func == "length") {
    if (!args[0].is_string()) return Status::TypeError("length expects string");
    return Value::Int64(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (func == "concat") {
    std::string out;
    for (const Value& a : args) {
      if (!a.is_string()) return Status::TypeError("concat expects strings");
      out += a.AsString();
    }
    return Value::String(std::move(out));
  }
  if (func == "lower" || func == "upper") {
    if (!args[0].is_string()) return Status::TypeError(StrCat(func, " expects string"));
    std::string s = args[0].AsString();
    for (char& c : s) {
      c = func == "lower" ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                          : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return Value::String(std::move(s));
  }
  if (func == "substr") {
    if (!args[0].is_string() || !args[1].is_int64() || !args[2].is_int64()) {
      return Status::TypeError("substr expects (string, int64, int64)");
    }
    const std::string& s = args[0].AsString();
    int64_t pos = std::clamp<int64_t>(args[1].AsInt64(), 0,
                                      static_cast<int64_t>(s.size()));
    int64_t len = std::max<int64_t>(0, args[2].AsInt64());
    return Value::String(s.substr(static_cast<size_t>(pos),
                                  static_cast<size_t>(len)));
  }
  return Status::TypeError(StrCat("unknown function: ", func));
}

}  // namespace

Result<Value> EvalExprRow(const Expr& expr, const Schema& schema,
                          const std::vector<Value>& row) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kColumnRef: {
      NEXUS_ASSIGN_OR_RETURN(int i, schema.FindFieldOrError(expr.column_name()));
      return row[static_cast<size_t>(i)];
    }
    case ExprKind::kUnary: {
      NEXUS_ASSIGN_OR_RETURN(Value v, EvalExprRow(*expr.child(0), schema, row));
      return EvalUnary(expr.unary_op(), v);
    }
    case ExprKind::kBinary: {
      BinaryOp op = expr.binary_op();
      NEXUS_ASSIGN_OR_RETURN(Value l, EvalExprRow(*expr.child(0), schema, row));
      if (IsLogical(op)) {
        // Short-circuit with 3-valued logic.
        if (op == BinaryOp::kAnd && !l.is_null() && !l.AsBool()) {
          return Value::Bool(false);
        }
        if (op == BinaryOp::kOr && !l.is_null() && l.AsBool()) {
          return Value::Bool(true);
        }
        NEXUS_ASSIGN_OR_RETURN(Value r, EvalExprRow(*expr.child(1), schema, row));
        if (op == BinaryOp::kAnd) {
          if (!r.is_null() && !r.AsBool()) return Value::Bool(false);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(true);
        }
        if (!r.is_null() && r.AsBool()) return Value::Bool(true);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      NEXUS_ASSIGN_OR_RETURN(Value r, EvalExprRow(*expr.child(1), schema, row));
      if (l.is_null() || r.is_null()) return Value::Null();
      if (IsComparison(op)) {
        int c = l.Compare(r);
        switch (op) {
          case BinaryOp::kEq:
            return Value::Bool(c == 0);
          case BinaryOp::kNe:
            return Value::Bool(c != 0);
          case BinaryOp::kLt:
            return Value::Bool(c < 0);
          case BinaryOp::kLe:
            return Value::Bool(c <= 0);
          case BinaryOp::kGt:
            return Value::Bool(c > 0);
          default:
            return Value::Bool(c >= 0);
        }
      }
      return EvalArithmetic(op, l, r);
    }
    case ExprKind::kFuncCall: {
      std::vector<Value> args;
      args.reserve(expr.children().size());
      for (const ExprPtr& c : expr.children()) {
        NEXUS_ASSIGN_OR_RETURN(Value v, EvalExprRow(*c, schema, row));
        args.push_back(std::move(v));
      }
      return EvalFunc(expr.func_name(), std::move(args));
    }
    case ExprKind::kCast: {
      NEXUS_ASSIGN_OR_RETURN(Value v, EvalExprRow(*expr.child(0), schema, row));
      return v.CastTo(expr.cast_target());
    }
  }
  return Status::Internal("unhandled expr kind");
}

namespace {

// Stitches per-morsel pieces, in morsel order, into one column reserved to
// the total size (a single piece moves through untouched).
Result<Column> Concat(std::vector<Column> pieces, DataType type) {
  if (pieces.size() == 1) return std::move(pieces[0]);
  int64_t total = 0;
  for (const Column& p : pieces) total += p.size();
  Column out(type);
  out.Reserve(total);
  for (const Column& p : pieces) NEXUS_RETURN_NOT_OK(out.AppendColumn(p));
  return out;
}

// Compiled evaluation: runs the cached bytecode program morsel-at-a-time
// into pieces each morsel owns; the pieces stitched in morsel order are
// byte-identical to one sequential pass because every output lane depends
// only on its own row.
Result<Column> EvalCompiled(const ExprProgram* prog, const Table& table,
                            DataType out_type) {
  NEXUS_ASSIGN_OR_RETURN(
      std::vector<Column> pieces,
      RunProgramMorsels<Column>(
          prog, table,
          [out_type](int64_t begin, int64_t end) {
            Column piece(out_type);
            piece.Reserve(end - begin);
            return piece;
          },
          [](const ExprVM& vm, int64_t, Column* piece) {
            vm.AppendOutput(0, piece);
          }));
  return Concat(std::move(pieces), out_type);
}

// Boxed evaluation of rows [begin, end) into a fresh column piece.
Result<Column> EvalBoxedRange(const Expr& expr, const Table& table,
                              DataType out_type, int64_t begin, int64_t end) {
  Column out(out_type);
  out.Reserve(end - begin);
  for (int64_t r = begin; r < end; ++r) {
    NEXUS_ASSIGN_OR_RETURN(Value v, EvalExprRow(expr, *table.schema(), table.Row(r)));
    if (v.is_null()) {
      out.AppendNull();
      continue;
    }
    // Coerce ints produced by numeric promotion into float64 outputs etc.
    NEXUS_ASSIGN_OR_RETURN(Value cast, v.CastTo(out_type));
    NEXUS_RETURN_NOT_OK(out.Append(cast));
  }
  return out;
}

// Boxed evaluation: morsels evaluate into per-morsel column pieces, stitched
// back together in morsel order (identical to one sequential pass).
Result<Column> EvalBoxed(const Expr& expr, const Table& table,
                         DataType out_type) {
  NEXUS_ASSIGN_OR_RETURN(
      std::vector<Result<Column>> parts,
      ParallelMorsels<Result<Column>>(
          table.num_rows(), [&](int64_t begin, int64_t end) {
            return EvalBoxedRange(expr, table, out_type, begin, end);
          }));
  std::vector<Column> pieces;
  pieces.reserve(parts.size());
  for (Result<Column>& part : parts) {
    NEXUS_RETURN_NOT_OK(part.status());
    pieces.push_back(part.MoveValue());
  }
  return Concat(std::move(pieces), out_type);
}

// The one compile-or-fall-back dispatch: the cached program for `expr` when
// it compiles to `out_type`, else nullptr and the caller runs the boxed
// interpreter (bytecode.h documents the contract: a program that compiles is
// byte-identical to the interpreter). Compile errors other than Unsupported
// propagate.
Result<ExprProgramPtr> CompiledOrNull(const Expr& expr, const Schema& schema,
                                      DataType out_type) {
  Result<ExprProgramPtr> prog = GetOrCompileProgram(expr, schema);
  if (!prog.ok()) {
    if (prog.status().IsUnsupported()) return ExprProgramPtr();
    return prog.status();
  }
  if (prog.ValueOrDie()->out_types[0] != out_type) return ExprProgramPtr();
  return prog;
}

}  // namespace

Result<Column> EvalExprInterpreted(const Expr& expr, const Table& table) {
  NEXUS_ASSIGN_OR_RETURN(DataType out_type,
                         InferExprType(expr, *table.schema()));
  return EvalBoxed(expr, table, out_type);
}

Result<Column> EvalExprVector(const Expr& expr, const Table& table) {
  NEXUS_ASSIGN_OR_RETURN(DataType out_type,
                         InferExprType(expr, *table.schema()));
  // Lower to register bytecode (cached process-wide) and run the vectorized
  // VM; anything the compiler refuses takes the boxed interpreter.
  NEXUS_ASSIGN_OR_RETURN(ExprProgramPtr prog,
                         CompiledOrNull(expr, *table.schema(), out_type));
  if (prog != nullptr) return EvalCompiled(prog.get(), table, out_type);
  return EvalBoxed(expr, table, out_type);
}

Result<std::vector<int64_t>> EvalPredicate(const Expr& expr, const Table& table) {
  NEXUS_ASSIGN_OR_RETURN(DataType t, InferExprType(expr, *table.schema()));
  if (t != DataType::kBool) {
    return Status::TypeError(
        StrCat("predicate must be boolean, got ", DataTypeName(t), ": ",
               expr.ToString()));
  }
  // Morsel-local selection vectors concatenated in morsel order reproduce
  // the ascending row order of the sequential scan exactly. Each is reserved
  // to its range but holds (and touches) only its survivors: the branch-free
  // selection writes every lane of a block into a stack buffer, and only
  // the selected rows are copied out.
  auto reserved = [](int64_t begin, int64_t end) {
    std::vector<int64_t> sel;
    sel.reserve(static_cast<size_t>(end - begin));
    return sel;
  };
  auto select = [](const uint8_t* bits, const uint8_t* valid, int64_t len,
                   int64_t base, std::vector<int64_t>* sel) {
    int64_t lanes[kSelectBlock] = {};
    for (int64_t b = 0; b < len; b += kSelectBlock) {
      const int64_t k = SelectTrueLanes(
          bits + b, valid == nullptr ? nullptr : valid + b,
          std::min(kSelectBlock, len - b), base + b, lanes);
      sel->insert(sel->end(), lanes, lanes + k);
    }
  };
  NEXUS_ASSIGN_OR_RETURN(ExprProgramPtr prog,
                         CompiledOrNull(expr, *table.schema(), DataType::kBool));
  std::vector<std::vector<int64_t>> pieces;
  if (prog != nullptr) {
    // A compiled predicate selects straight from the VM's output register,
    // with no mask column in between.
    NEXUS_ASSIGN_OR_RETURN(
        pieces, RunProgramMorsels<std::vector<int64_t>>(
                    prog.get(), table, reserved,
                    [&](const ExprVM& vm, int64_t base, std::vector<int64_t>* sel) {
                      const VMReg& r = vm.out_reg(0);
                      select(r.b, r.valid, vm.len(), base, sel);
                    }));
  } else {
    NEXUS_ASSIGN_OR_RETURN(Column mask, EvalBoxed(expr, table, DataType::kBool));
    NEXUS_ASSIGN_OR_RETURN(
        pieces, ParallelMorsels<std::vector<int64_t>>(
                    table.num_rows(), [&](int64_t begin, int64_t end) {
                      std::vector<int64_t> sel = reserved(begin, end);
                      select(mask.bools().data() + begin,
                             mask.has_nulls() ? mask.validity().data() + begin
                                              : nullptr,
                             end - begin, begin, &sel);
                      return sel;
                    }));
  }
  if (pieces.size() == 1) return std::move(pieces[0]);
  size_t total = 0;
  for (const auto& sel : pieces) total += sel.size();
  std::vector<int64_t> selection;
  selection.reserve(total);
  for (const auto& sel : pieces) {
    selection.insert(selection.end(), sel.begin(), sel.end());
  }
  return selection;
}

}  // namespace nexus
