// Register bytecode for scalar expressions — the compile-once/run-many half
// of the engine's hot path (the paper's Performance desideratum: "as fast as
// the hardware allows").
//
// CompileExprs lowers one or more Expr trees over a fixed input schema into
// a single ExprProgram: a flat sequence of typed instructions over virtual
// registers, with a constant pool and common-subexpression elimination (a
// subtree appearing in several expressions of one program compiles once and
// its register is reused). The vectorized VM in expr/vm.h executes a whole
// morsel per instruction dispatch instead of a tree node per value.
//
// Type discipline: instruction selection is driven by the same static types
// InferExprType assigns, with explicit promotion casts inserted where the
// row interpreter promotes dynamically (int64 ∨ float64 → float64). Mixed
// int64/float64 comparisons compare in double — exactly Value::Compare's
// rule — while comparisons whose operands are statically int64 use exact
// int64 opcodes, so they stay exact beyond 2^53.
//
// The VM is the only vectorized expression tier: EvalExprVector runs every
// program that compiles, and only a refused expression reaches the boxed row
// interpreter (EvalExprInterpreted in expr/eval.h).
//
// Byte-identity contract: a program either compiles and then produces
// bit-identical results to the row interpreter for every input, or
// compilation refuses with StatusCode::kUnsupported and the caller falls
// back to the interpreter. The refusals that guarantee this:
//   - string → int64/float64/bool casts (the only runtime-fallible ops;
//     refusing them makes every compiled program infallible, so the VM can
//     also evaluate both sides of and/or where the interpreter
//     short-circuits without observable difference),
//   - min/max, if, and coalesce over mixed int64/float64 arguments (the
//     interpreter hands values through with their dynamic type, so an int64
//     flowing on into integer arithmetic stays exact where a promoted
//     double register would round above 2^53).
// With those refused, every compiled subtree's runtime value type equals its
// static type, so the compiler's instruction selection agrees with the
// interpreter's dynamic dispatch everywhere — by induction, bit-identical.
// Anything else that does not fit the ISA (unknown functions, type errors —
// reported properly by the interpreter's own inference) also returns
// kUnsupported rather than guessing.
#ifndef NEXUS_EXPR_BYTECODE_H_
#define NEXUS_EXPR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace nexus {

/// Typed opcodes. Naming: operand type suffix; `aux` carries the comparison
/// predicate, constant-pool slot, or input column index.
enum class OpCode : uint8_t {
  // Register loads. kLoadConst/kLoadNull are prologue instructions: the VM
  // materializes them once per binding, not once per morsel. kLoadCol binds
  // a zero-copy view of the input column window each morsel.
  kLoadConst,
  kLoadNull,
  kLoadCol,
  // Numeric promotion / explicit casts (string-parsing casts are refused).
  kCastIntToDouble,
  kCastDoubleToInt,
  kCastBoolToInt,
  kCastBoolToDouble,
  kCastIntToBool,
  kCastDoubleToBool,
  kCastIntToString,
  kCastDoubleToString,
  kCastBoolToString,
  // Unary.
  kNegInt,
  kNegDouble,
  kNotBool,
  // Arithmetic (strict nulls; div/mod by zero yield null).
  kAddInt,
  kSubInt,
  kMulInt,
  kModInt,
  kAddDouble,
  kSubDouble,
  kMulDouble,
  kDivDouble,
  kConcatStr,  ///< string + string
  // Comparison; aux holds CmpPred.
  kCmpInt,
  kCmpDouble,
  kCmpBool,
  kCmpString,
  // Three-valued logic (non-short-circuit; safe because programs are
  // infallible by construction).
  kAndBool,
  kOrBool,
  // Builtin functions.
  kAbsInt,
  kAbsDouble,
  kSignInt,
  kSignDouble,
  kSqrt,
  kExp,
  kLog,
  kSin,
  kCos,
  kPow,
  kFloor,
  kCeil,
  kRound,
  kMinInt,
  kMaxInt,
  kMinDouble,
  kMaxDouble,
  kMinString,
  kMaxString,
  kIf,
  kCoalesce,
  kIsNull,
  kLength,
  kConcat,
  kLower,
  kUpper,
  kSubstr,
};

const char* OpCodeName(OpCode op);

/// Comparison predicates carried in Instr::aux (mirror BinaryOp kEq..kGe).
enum class CmpPred : uint16_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// One instruction: dst ← op(a, b, c) with up to three fixed operands plus a
/// variadic tail for min/max/coalesce/concat.
struct Instr {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint16_t aux = 0;
  std::vector<uint16_t> args;  ///< variadic operands (empty for fixed-arity)
};

/// A compiled multi-output program: straight-line code in SSA-like form
/// (every register written exactly once, inputs before uses).
struct ExprProgram {
  std::vector<Instr> instrs;
  std::vector<Value> const_pool;
  std::vector<DataType> reg_types;  ///< indexed by register id
  std::vector<uint16_t> outputs;    ///< result register per compiled expr
  std::vector<DataType> out_types;  ///< inferred type per compiled expr

  int num_regs() const { return static_cast<int>(reg_types.size()); }
  /// Disassembly, one instruction per line (tests and EXPLAIN debugging).
  std::string ToString() const;
};

using ExprProgramPtr = std::shared_ptr<const ExprProgram>;

/// Compiles every expression against `input`, sharing registers across
/// common subtrees. Returns kUnsupported when any tree does not fit the ISA
/// (callers fall back to the interpreter; see the contract above).
Result<ExprProgram> CompileExprs(const std::vector<ExprPtr>& exprs,
                                 const Schema& input);
Result<ExprProgram> CompileExpr(const ExprPtr& expr, const Schema& input);

// ---------------------------------------------------------------------------
// Program cache: compile once per (expression list, schema) process-wide.
// ---------------------------------------------------------------------------
//
// The cache is the expression-level analogue of the provider plan-fingerprint
// cache (NXB1 %NXB1-PLAN envelopes): a provider that re-executes a cached
// plan re-encounters structurally identical expressions and skips
// compilation entirely. Keys are structural (Expr::Hash + schema fields) and
// entries are verified with Expr::Equals on hit, so a hash collision can
// only cost a recompile, never a wrong program. Uncompilable entries are
// negatively cached so hot interpreter fallbacks don't re-attempt
// compilation every morsel batch.
//
// Metrics (telemetry::MetricsRegistry):
//   expr.compile            programs actually compiled
//   expr.compile_cache_hit  lookups served from cache
//   expr.compile_unsupported  compilations refused (negative entries)

/// Returns the cached (or freshly compiled) program for `exprs` over
/// `input`; kUnsupported when the expressions cannot be compiled (this
/// outcome is cached too).
Result<ExprProgramPtr> GetOrCompileProgram(const std::vector<ExprPtr>& exprs,
                                           const Schema& input);
/// Single-expression convenience for callers holding only a reference (the
/// cache clones the tree so its key outlives the caller's expr).
Result<ExprProgramPtr> GetOrCompileProgram(const Expr& expr,
                                           const Schema& input);

/// Drops every cached program (tests).
void ClearProgramCacheForTest();

}  // namespace nexus

#endif  // NEXUS_EXPR_BYTECODE_H_
