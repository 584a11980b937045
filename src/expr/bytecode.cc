#include "expr/bytecode.h"

#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/str_util.h"
#include "telemetry/metrics.h"

namespace nexus {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst: return "load_const";
    case OpCode::kLoadNull: return "load_null";
    case OpCode::kLoadCol: return "load_col";
    case OpCode::kCastIntToDouble: return "cast_i2d";
    case OpCode::kCastDoubleToInt: return "cast_d2i";
    case OpCode::kCastBoolToInt: return "cast_b2i";
    case OpCode::kCastBoolToDouble: return "cast_b2d";
    case OpCode::kCastIntToBool: return "cast_i2b";
    case OpCode::kCastDoubleToBool: return "cast_d2b";
    case OpCode::kCastIntToString: return "cast_i2s";
    case OpCode::kCastDoubleToString: return "cast_d2s";
    case OpCode::kCastBoolToString: return "cast_b2s";
    case OpCode::kNegInt: return "neg_i";
    case OpCode::kNegDouble: return "neg_d";
    case OpCode::kNotBool: return "not_b";
    case OpCode::kAddInt: return "add_i";
    case OpCode::kSubInt: return "sub_i";
    case OpCode::kMulInt: return "mul_i";
    case OpCode::kModInt: return "mod_i";
    case OpCode::kAddDouble: return "add_d";
    case OpCode::kSubDouble: return "sub_d";
    case OpCode::kMulDouble: return "mul_d";
    case OpCode::kDivDouble: return "div_d";
    case OpCode::kConcatStr: return "concat_s";
    case OpCode::kCmpInt: return "cmp_i";
    case OpCode::kCmpDouble: return "cmp_d";
    case OpCode::kCmpBool: return "cmp_b";
    case OpCode::kCmpString: return "cmp_s";
    case OpCode::kAndBool: return "and_b";
    case OpCode::kOrBool: return "or_b";
    case OpCode::kAbsInt: return "abs_i";
    case OpCode::kAbsDouble: return "abs_d";
    case OpCode::kSignInt: return "sign_i";
    case OpCode::kSignDouble: return "sign_d";
    case OpCode::kSqrt: return "sqrt";
    case OpCode::kExp: return "exp";
    case OpCode::kLog: return "log";
    case OpCode::kSin: return "sin";
    case OpCode::kCos: return "cos";
    case OpCode::kPow: return "pow";
    case OpCode::kFloor: return "floor";
    case OpCode::kCeil: return "ceil";
    case OpCode::kRound: return "round";
    case OpCode::kMinInt: return "min_i";
    case OpCode::kMaxInt: return "max_i";
    case OpCode::kMinDouble: return "min_d";
    case OpCode::kMaxDouble: return "max_d";
    case OpCode::kMinString: return "min_s";
    case OpCode::kMaxString: return "max_s";
    case OpCode::kIf: return "if";
    case OpCode::kCoalesce: return "coalesce";
    case OpCode::kIsNull: return "is_null";
    case OpCode::kLength: return "length";
    case OpCode::kConcat: return "concat";
    case OpCode::kLower: return "lower";
    case OpCode::kUpper: return "upper";
    case OpCode::kSubstr: return "substr";
  }
  return "?";
}

std::string ExprProgram::ToString() const {
  std::string out;
  for (const Instr& in : instrs) {
    out += StrCat("r", in.dst, " = ", OpCodeName(in.op));
    switch (in.op) {
      case OpCode::kLoadConst:
        out += StrCat(" ", const_pool[in.aux].ToString());
        break;
      case OpCode::kLoadNull:
        break;
      case OpCode::kLoadCol:
        out += StrCat(" col", in.aux);
        break;
      default: {
        if (!in.args.empty()) {
          for (uint16_t r : in.args) out += StrCat(" r", r);
        } else {
          out += StrCat(" r", in.a);
          if (in.op == OpCode::kIf || in.op == OpCode::kSubstr) {
            out += StrCat(" r", in.b, " r", in.c);
          } else if (in.op == OpCode::kPow) {
            out += StrCat(" r", in.b);
          } else if (in.op >= OpCode::kAddInt && in.op <= OpCode::kOrBool) {
            out += StrCat(" r", in.b);
            if (in.op >= OpCode::kCmpInt && in.op <= OpCode::kCmpString) {
              static const char* kPred[] = {"==", "!=", "<", "<=", ">", ">="};
              out += StrCat(" ", kPred[in.aux]);
            }
          }
        }
        break;
      }
    }
    out += "\n";
  }
  for (size_t i = 0; i < outputs.size(); ++i) {
    out += StrCat("out", i, " = r", outputs[i], " : ",
                  DataTypeName(out_types[i]), "\n");
  }
  return out;
}

namespace {

Status Uncompilable(const char* why) {
  return Status::Unsupported(StrCat("expression not compilable: ", why));
}

/// Bottom-up single-pass compiler. Assumes the input already type-checks
/// under InferExprType (callers infer first); anything suspicious returns
/// kUnsupported rather than guessing, and the caller falls back to the
/// interpreter which reports the real error.
class Compiler {
 public:
  explicit Compiler(const Schema& schema) : schema_(schema) {}

  Result<ExprProgram> Compile(const std::vector<ExprPtr>& exprs) {
    for (const ExprPtr& e : exprs) {
      if (e == nullptr) return Uncompilable("null expression");
      NEXUS_ASSIGN_OR_RETURN(RegInfo out, CompileNode(*e));
      prog_.outputs.push_back(out.reg);
      prog_.out_types.push_back(out.type);
    }
    return std::move(prog_);
  }

 private:
  struct RegInfo {
    uint16_t reg;
    DataType type;
  };

  Result<uint16_t> Alloc(DataType t) {
    if (prog_.reg_types.size() >= 65500) return Uncompilable("register limit");
    prog_.reg_types.push_back(t);
    return static_cast<uint16_t>(prog_.reg_types.size() - 1);
  }

  Result<RegInfo> Emit(OpCode op, DataType out, uint16_t a = 0, uint16_t b = 0,
                       uint16_t c = 0, uint16_t aux = 0,
                       std::vector<uint16_t> args = {}) {
    NEXUS_ASSIGN_OR_RETURN(uint16_t dst, Alloc(out));
    prog_.instrs.push_back(Instr{op, dst, a, b, c, aux, std::move(args)});
    return RegInfo{dst, out};
  }

  /// Numeric/bool promotion; identity when from == to. String-parsing casts
  /// are refused (the one runtime-fallible operation; see bytecode.h).
  Result<RegInfo> Coerce(RegInfo in, DataType to) {
    if (in.type == to) return in;
    uint32_t key = (static_cast<uint32_t>(in.reg) << 2) | static_cast<uint32_t>(to);
    auto it = cast_memo_.find(key);
    if (it != cast_memo_.end()) return RegInfo{it->second, to};
    OpCode op;
    switch (in.type) {
      case DataType::kInt64:
        op = to == DataType::kFloat64 ? OpCode::kCastIntToDouble
             : to == DataType::kBool  ? OpCode::kCastIntToBool
                                      : OpCode::kCastIntToString;
        break;
      case DataType::kFloat64:
        op = to == DataType::kInt64 ? OpCode::kCastDoubleToInt
             : to == DataType::kBool ? OpCode::kCastDoubleToBool
                                     : OpCode::kCastDoubleToString;
        break;
      case DataType::kBool:
        op = to == DataType::kInt64    ? OpCode::kCastBoolToInt
             : to == DataType::kFloat64 ? OpCode::kCastBoolToDouble
                                        : OpCode::kCastBoolToString;
        break;
      case DataType::kString:
      default:
        return Uncompilable("string parse cast is runtime-fallible");
    }
    NEXUS_ASSIGN_OR_RETURN(RegInfo out, Emit(op, to, in.reg));
    cast_memo_[key] = out.reg;
    return out;
  }

  Result<RegInfo> CompileNode(const Expr& expr) {
    // CSE: structurally identical subtrees (within this program) share one
    // register. Hash bucket entries are verified with Equals, so collisions
    // only cost the lookup.
    uint64_t h = expr.Hash();
    auto bucket = cse_.find(h);
    if (bucket != cse_.end()) {
      for (const auto& [node, info] : bucket->second) {
        if (node->Equals(expr)) return info;
      }
    }
    NEXUS_ASSIGN_OR_RETURN(RegInfo info, CompileNodeUncached(expr));
    cse_[h].emplace_back(&expr, info);
    return info;
  }

  Result<RegInfo> CompileNodeUncached(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::kLiteral: {
        const Value& v = expr.literal();
        if (v.is_null()) {
          // Untyped null infers as float64 (see InferExprType).
          return Emit(OpCode::kLoadNull, DataType::kFloat64);
        }
        uint16_t slot = 0;
        bool found = false;
        for (size_t i = 0; i < prog_.const_pool.size(); ++i) {
          const Value& p = prog_.const_pool[i];
          if (p.type() == v.type() && p.Compare(v) == 0) {
            slot = static_cast<uint16_t>(i);
            found = true;
            break;
          }
        }
        if (!found) {
          if (prog_.const_pool.size() >= 65500) {
            return Uncompilable("constant pool limit");
          }
          slot = static_cast<uint16_t>(prog_.const_pool.size());
          prog_.const_pool.push_back(v);
        }
        return Emit(OpCode::kLoadConst, v.type(), 0, 0, 0, slot);
      }
      case ExprKind::kColumnRef: {
        int i = schema_.FindField(expr.column_name());
        if (i < 0) return Uncompilable("unknown column");
        return Emit(OpCode::kLoadCol, schema_.field(i).type, 0, 0, 0,
                    static_cast<uint16_t>(i));
      }
      case ExprKind::kUnary: {
        NEXUS_ASSIGN_OR_RETURN(RegInfo a, CompileNode(*expr.child(0)));
        if (expr.unary_op() == UnaryOp::kNeg) {
          if (a.type == DataType::kInt64) {
            return Emit(OpCode::kNegInt, DataType::kInt64, a.reg);
          }
          if (a.type == DataType::kFloat64) {
            return Emit(OpCode::kNegDouble, DataType::kFloat64, a.reg);
          }
          return Uncompilable("neg of non-numeric");
        }
        if (a.type != DataType::kBool) return Uncompilable("not of non-bool");
        return Emit(OpCode::kNotBool, DataType::kBool, a.reg);
      }
      case ExprKind::kBinary:
        return CompileBinary(expr);
      case ExprKind::kFuncCall:
        return CompileFunc(expr);
      case ExprKind::kCast: {
        NEXUS_ASSIGN_OR_RETURN(RegInfo a, CompileNode(*expr.child(0)));
        return Coerce(a, expr.cast_target());
      }
    }
    return Uncompilable("unhandled expr kind");
  }

  Result<RegInfo> CompileBinary(const Expr& expr) {
    BinaryOp op = expr.binary_op();
    NEXUS_ASSIGN_OR_RETURN(RegInfo l, CompileNode(*expr.child(0)));
    NEXUS_ASSIGN_OR_RETURN(RegInfo r, CompileNode(*expr.child(1)));
    if (IsLogical(op)) {
      if (l.type != DataType::kBool || r.type != DataType::kBool) {
        return Uncompilable("logical op on non-bool");
      }
      return Emit(op == BinaryOp::kAnd ? OpCode::kAndBool : OpCode::kOrBool,
                  DataType::kBool, l.reg, r.reg);
    }
    if (IsComparison(op)) {
      uint16_t pred = static_cast<uint16_t>(static_cast<int>(op) -
                                            static_cast<int>(BinaryOp::kEq));
      if (l.type == r.type) {
        OpCode oc;
        switch (l.type) {
          case DataType::kInt64: oc = OpCode::kCmpInt; break;
          case DataType::kFloat64: oc = OpCode::kCmpDouble; break;
          case DataType::kBool: oc = OpCode::kCmpBool; break;
          case DataType::kString: oc = OpCode::kCmpString; break;
          default: return Uncompilable("uncomparable type");
        }
        return Emit(oc, DataType::kBool, l.reg, r.reg, 0, pred);
      }
      if (IsNumeric(l.type) && IsNumeric(r.type)) {
        // Mixed int64/float64: Value::Compare compares in double.
        NEXUS_ASSIGN_OR_RETURN(l, Coerce(l, DataType::kFloat64));
        NEXUS_ASSIGN_OR_RETURN(r, Coerce(r, DataType::kFloat64));
        return Emit(OpCode::kCmpDouble, DataType::kBool, l.reg, r.reg, 0, pred);
      }
      return Uncompilable("mixed-type comparison");
    }
    // Arithmetic.
    if (op == BinaryOp::kAdd && l.type == DataType::kString &&
        r.type == DataType::kString) {
      return Emit(OpCode::kConcatStr, DataType::kString, l.reg, r.reg);
    }
    if (!IsNumeric(l.type) || !IsNumeric(r.type)) {
      return Uncompilable("arithmetic on non-numeric");
    }
    bool int_math =
        l.type == DataType::kInt64 && r.type == DataType::kInt64;
    switch (op) {
      case BinaryOp::kDiv: {
        NEXUS_ASSIGN_OR_RETURN(l, Coerce(l, DataType::kFloat64));
        NEXUS_ASSIGN_OR_RETURN(r, Coerce(r, DataType::kFloat64));
        return Emit(OpCode::kDivDouble, DataType::kFloat64, l.reg, r.reg);
      }
      case BinaryOp::kMod:
        if (!int_math) return Uncompilable("mod of non-int64");
        return Emit(OpCode::kModInt, DataType::kInt64, l.reg, r.reg);
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        OpCode oc;
        if (int_math) {
          oc = op == BinaryOp::kAdd   ? OpCode::kAddInt
               : op == BinaryOp::kSub ? OpCode::kSubInt
                                      : OpCode::kMulInt;
          return Emit(oc, DataType::kInt64, l.reg, r.reg);
        }
        NEXUS_ASSIGN_OR_RETURN(l, Coerce(l, DataType::kFloat64));
        NEXUS_ASSIGN_OR_RETURN(r, Coerce(r, DataType::kFloat64));
        oc = op == BinaryOp::kAdd   ? OpCode::kAddDouble
             : op == BinaryOp::kSub ? OpCode::kSubDouble
                                    : OpCode::kMulDouble;
        return Emit(oc, DataType::kFloat64, l.reg, r.reg);
      }
      default:
        return Uncompilable("unhandled binary op");
    }
  }

  Result<RegInfo> CompileFunc(const Expr& expr) {
    const std::string& f = expr.func_name();
    std::vector<RegInfo> args;
    args.reserve(expr.children().size());
    for (const ExprPtr& c : expr.children()) {
      NEXUS_ASSIGN_OR_RETURN(RegInfo a, CompileNode(*c));
      args.push_back(a);
    }
    auto arity = [&](size_t lo, size_t hi) {
      return args.size() >= lo && args.size() <= hi;
    };
    auto all_numeric = [&] {
      for (const RegInfo& a : args) {
        if (!IsNumeric(a.type)) return false;
      }
      return true;
    };
    if (f == "is_null") {
      if (!arity(1, 1)) return Uncompilable("is_null arity");
      return Emit(OpCode::kIsNull, DataType::kBool, args[0].reg);
    }
    if (f == "coalesce") {
      // Mixed int64/float64 arguments are refused (like min/max): the
      // interpreter hands the chosen argument through with its dynamic type,
      // so downstream integer arithmetic would run exact where the promoted
      // double register rounds above 2^53.
      if (args.empty()) return Uncompilable("coalesce arity");
      DataType t = args[0].type;
      std::vector<uint16_t> regs;
      for (const RegInfo& a : args) {
        if (a.type != t) return Uncompilable("coalesce type mix");
        regs.push_back(a.reg);
      }
      return Emit(OpCode::kCoalesce, t, 0, 0, 0, 0, std::move(regs));
    }
    if (f == "if") {
      // Branches must agree exactly, for the same reason as coalesce.
      if (!arity(3, 3) || args[0].type != DataType::kBool) {
        return Uncompilable("if signature");
      }
      if (args[1].type != args[2].type) {
        return Uncompilable("if branch type mix");
      }
      return Emit(OpCode::kIf, args[1].type, args[0].reg, args[1].reg,
                  args[2].reg);
    }
    if (f == "abs" || f == "sign") {
      if (!arity(1, 1) || !all_numeric()) return Uncompilable("abs/sign");
      bool is_int = args[0].type == DataType::kInt64;
      if (f == "abs") {
        return Emit(is_int ? OpCode::kAbsInt : OpCode::kAbsDouble,
                    args[0].type, args[0].reg);
      }
      return Emit(is_int ? OpCode::kSignInt : OpCode::kSignDouble,
                  args[0].type, args[0].reg);
    }
    if (f == "sqrt" || f == "exp" || f == "log" || f == "sin" || f == "cos") {
      if (!arity(1, 1) || !all_numeric()) return Uncompilable("unary math");
      NEXUS_ASSIGN_OR_RETURN(RegInfo a, Coerce(args[0], DataType::kFloat64));
      OpCode oc = f == "sqrt"  ? OpCode::kSqrt
                  : f == "exp" ? OpCode::kExp
                  : f == "log" ? OpCode::kLog
                  : f == "sin" ? OpCode::kSin
                               : OpCode::kCos;
      return Emit(oc, DataType::kFloat64, a.reg);
    }
    if (f == "pow") {
      if (!arity(2, 2) || !all_numeric()) return Uncompilable("pow");
      NEXUS_ASSIGN_OR_RETURN(RegInfo a, Coerce(args[0], DataType::kFloat64));
      NEXUS_ASSIGN_OR_RETURN(RegInfo b, Coerce(args[1], DataType::kFloat64));
      return Emit(OpCode::kPow, DataType::kFloat64, a.reg, b.reg);
    }
    if (f == "floor" || f == "ceil" || f == "round") {
      if (!arity(1, 1) || !all_numeric()) return Uncompilable("floor/ceil/round");
      // The interpreter widens to double before rounding (AsDouble), so the
      // compiled form does the same even for int64 inputs.
      NEXUS_ASSIGN_OR_RETURN(RegInfo a, Coerce(args[0], DataType::kFloat64));
      OpCode oc = f == "floor"  ? OpCode::kFloor
                  : f == "ceil" ? OpCode::kCeil
                                : OpCode::kRound;
      return Emit(oc, DataType::kInt64, a.reg);
    }
    if (f == "min" || f == "max") {
      if (args.size() < 2) return Uncompilable("min/max arity");
      bool all_int = true, all_dbl = true, all_str = true;
      for (const RegInfo& a : args) {
        all_int &= a.type == DataType::kInt64;
        all_dbl &= a.type == DataType::kFloat64;
        all_str &= a.type == DataType::kString;
      }
      // Mixed int64/float64 is refused: the interpreter's pairwise fold
      // compares int64 pairs exactly, which a promoted double fold cannot
      // reproduce above 2^53 (see the byte-identity contract in bytecode.h).
      OpCode oc;
      if (all_int) {
        oc = f == "min" ? OpCode::kMinInt : OpCode::kMaxInt;
      } else if (all_dbl) {
        oc = f == "min" ? OpCode::kMinDouble : OpCode::kMaxDouble;
      } else if (all_str) {
        oc = f == "min" ? OpCode::kMinString : OpCode::kMaxString;
      } else {
        return Uncompilable("min/max over mixed types");
      }
      std::vector<uint16_t> regs;
      for (const RegInfo& a : args) regs.push_back(a.reg);
      return Emit(oc, args[0].type, 0, 0, 0, 0, std::move(regs));
    }
    if (f == "length") {
      if (!arity(1, 1) || args[0].type != DataType::kString) {
        return Uncompilable("length");
      }
      return Emit(OpCode::kLength, DataType::kInt64, args[0].reg);
    }
    if (f == "concat") {
      if (args.empty()) return Uncompilable("concat arity");
      std::vector<uint16_t> regs;
      for (const RegInfo& a : args) {
        if (a.type != DataType::kString) return Uncompilable("concat non-string");
        regs.push_back(a.reg);
      }
      return Emit(OpCode::kConcat, DataType::kString, 0, 0, 0, 0,
                  std::move(regs));
    }
    if (f == "lower" || f == "upper") {
      if (!arity(1, 1) || args[0].type != DataType::kString) {
        return Uncompilable("lower/upper");
      }
      return Emit(f == "lower" ? OpCode::kLower : OpCode::kUpper,
                  DataType::kString, args[0].reg);
    }
    if (f == "substr") {
      if (!arity(3, 3) || args[0].type != DataType::kString ||
          args[1].type != DataType::kInt64 || args[2].type != DataType::kInt64) {
        return Uncompilable("substr signature");
      }
      return Emit(OpCode::kSubstr, DataType::kString, args[0].reg, args[1].reg,
                  args[2].reg);
    }
    return Uncompilable("unknown function");
  }

  const Schema& schema_;
  ExprProgram prog_;
  std::unordered_map<uint64_t, std::vector<std::pair<const Expr*, RegInfo>>>
      cse_;
  std::unordered_map<uint32_t, uint16_t> cast_memo_;
};

}  // namespace

Result<ExprProgram> CompileExprs(const std::vector<ExprPtr>& exprs,
                                 const Schema& input) {
  Compiler c(input);
  return c.Compile(exprs);
}

Result<ExprProgram> CompileExpr(const ExprPtr& expr, const Schema& input) {
  return CompileExprs({expr}, input);
}

// ---------------------------------------------------------------------------
// Program cache.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kProgramCacheCapacity = 256;

struct CacheEntry {
  std::vector<ExprPtr> exprs;
  std::vector<Field> fields;
  ExprProgramPtr program;  ///< null = negatively cached (uncompilable)
};

struct ProgramCache {
  std::mutex mu;
  std::unordered_map<uint64_t, CacheEntry> entries;
  std::deque<uint64_t> fifo;
};

ProgramCache& Cache() {
  static ProgramCache* c = new ProgramCache();
  return *c;
}

uint64_t CacheKey(const std::vector<ExprPtr>& exprs, const Schema& input) {
  uint64_t h = HashInt64(exprs.size());
  for (const ExprPtr& e : exprs) h = HashCombine(h, e == nullptr ? 0 : e->Hash());
  for (const Field& f : input.fields()) {
    h = HashCombine(h, HashString(f.name));
    h = HashCombine(h, HashInt64(static_cast<uint64_t>(f.type) * 2 +
                                 (f.is_dimension ? 1 : 0)));
  }
  return h;
}

bool EntryMatches(const CacheEntry& e, const std::vector<ExprPtr>& exprs,
                  const Schema& input) {
  if (e.exprs.size() != exprs.size()) return false;
  if (e.fields.size() != static_cast<size_t>(input.num_fields())) return false;
  for (size_t i = 0; i < e.fields.size(); ++i) {
    if (!(e.fields[i] == input.field(static_cast<int>(i)))) return false;
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    if ((e.exprs[i] == nullptr) != (exprs[i] == nullptr)) return false;
    if (exprs[i] != nullptr && !e.exprs[i]->Equals(*exprs[i])) return false;
  }
  return true;
}

}  // namespace

Result<ExprProgramPtr> GetOrCompileProgram(const std::vector<ExprPtr>& exprs,
                                           const Schema& input) {
  static telemetry::Counter* refused =
      telemetry::MetricsRegistry::Global().counter("expr.compile_unsupported");
  uint64_t key = CacheKey(exprs, input);
  ProgramCache& cache = Cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end() && EntryMatches(it->second, exprs, input)) {
      telemetry::Count(QueryStat::kExprCacheHits);
      if (it->second.program == nullptr) {
        return Status::Unsupported("expression not compilable (cached)");
      }
      return it->second.program;
    }
  }
  // Compile outside the lock; concurrent first-compiles of the same program
  // are rare and at worst redundant, never wrong.
  Result<ExprProgram> compiled = CompileExprs(exprs, input);
  CacheEntry entry;
  entry.exprs = exprs;
  entry.fields = input.fields();
  Status refusal = Status::OK();
  if (compiled.ok()) {
    telemetry::Count(QueryStat::kExprCompiles);
    entry.program =
        std::make_shared<const ExprProgram>(compiled.MoveValue());
  } else if (compiled.status().IsUnsupported()) {
    refused->Increment();
    refusal = compiled.status();
  } else {
    return compiled.status();  // real error: do not cache
  }
  ExprProgramPtr program = entry.program;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (cache.entries.find(key) == cache.entries.end()) {
      while (cache.fifo.size() >= kProgramCacheCapacity) {
        cache.entries.erase(cache.fifo.front());
        cache.fifo.pop_front();
      }
      cache.fifo.push_back(key);
    }
    cache.entries[key] = std::move(entry);
  }
  if (program == nullptr) return refusal;
  return program;
}

Result<ExprProgramPtr> GetOrCompileProgram(const Expr& expr,
                                           const Schema& input) {
  return GetOrCompileProgram(std::vector<ExprPtr>{expr.Clone()}, input);
}

void ClearProgramCacheForTest() {
  ProgramCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.fifo.clear();
}

}  // namespace nexus
