// Expression evaluation: a definitional row-at-a-time interpreter plus a
// vectorized evaluator that runs the compiled bytecode VM (expr/bytecode.h).
//
// Null semantics are SQL-like: any null operand yields null, except the
// three-valued logical connectives and the null-aware functions coalesce,
// is_null, and if().
#ifndef NEXUS_EXPR_EVAL_H_
#define NEXUS_EXPR_EVAL_H_

#include <vector>

#include "expr/expr.h"
#include "types/column.h"
#include "types/table.h"

namespace nexus {

/// Evaluates `expr` on one row (values aligned with `schema`).
Result<Value> EvalExprRow(const Expr& expr, const Schema& schema,
                          const std::vector<Value>& row);

/// Evaluates `expr` over every row of `table`, producing a column of the
/// inferred type. Runs the compiled bytecode VM (exact typed opcodes,
/// byte-identical to the interpreter); expressions the compiler refuses,
/// such as string-parsing casts, fall back to EvalExprInterpreted.
Result<Column> EvalExprVector(const Expr& expr, const Table& table);

/// Evaluates `expr` over every row of `table` with the boxed row
/// interpreter (EvalExprRow per row, morsel-parallel). This is the fallback
/// for expressions the compiler refuses and the reference the compiled tier
/// is tested and benchmarked against.
Result<Column> EvalExprInterpreted(const Expr& expr, const Table& table);

/// Convenience: evaluates a boolean predicate to a selection vector of row
/// indices where it holds (nulls are treated as false, as in SQL WHERE).
Result<std::vector<int64_t>> EvalPredicate(const Expr& expr, const Table& table);

}  // namespace nexus

#endif  // NEXUS_EXPR_EVAL_H_
