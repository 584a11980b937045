// Fused morsel pipelines: executes a matched Filter→Extend/Project→Aggregate
// chain (optimizer/fusion.h) as ONE loop over the source table — per morsel,
// a single compiled expression program evaluates every predicate and output
// column, a selection register picks the surviving lanes, and survivors are
// gathered straight into the result columns. No intermediate table is
// materialized per operator.
//
// Lowering works symbolically: each working column is tracked as an
// expression over the SOURCE schema (Extend definitions are inlined via
// SubstituteColumns), so the whole chain becomes [predicates..., outputs...]
// compiled together — common subtrees between predicates and outputs compile
// once (bytecode.h CSE). An Aggregate at the top of the chain is lowered to
// a narrow table (group columns + precomputed aggregate inputs) fed to the
// regular grouped fold, algebra::LowerAggregate.
//
// Byte-identity with the per-operator path:
//   - expression values are row-local and the compiled program is
//     bit-identical to the interpreter (bytecode.h contract), so gathering
//     selected lanes of source-row evaluations equals evaluating over the
//     filtered intermediate tables;
//   - inlining an Extend definition is transparent because every compiled
//     subtree's runtime type equals its static type (same contract), which
//     is exactly the type Extend's materialized column would have;
//   - the narrow aggregate input sees the same row count, values, group
//     hashes, and first-seen order as the unfused aggregate, so its
//     sequential/parallel threshold and float accumulation order agree.
// Lowering REFUSES (kUnsupported) anything it cannot prove — the caller
// falls back to the per-operator path, which also owns error reporting for
// invalid plans.
//
// Compiled programs are cached by the process-wide expression program cache
// (bytecode.h), so a provider re-executing a cached plan fingerprint skips
// compilation entirely (ExplainAnalyze's compile stats line shows this).
#ifndef NEXUS_RELATIONAL_FUSED_H_
#define NEXUS_RELATIONAL_FUSED_H_

#include <vector>

#include "core/plan.h"
#include "expr/bytecode.h"
#include "types/table.h"

namespace nexus {
namespace relational {

/// A lowered chain, ready to execute against tables with the source schema.
struct FusedPipeline {
  /// [predicates..., output columns...] over the source schema.
  ExprProgramPtr program;
  int num_preds = 0;
  /// Schema of the pre-aggregate fused result (the narrow aggregate input
  /// when has_agg, else the chain's final schema).
  SchemaPtr out_schema;
  bool has_agg = false;
  /// Aggregate spec rewritten over `out_schema` (inputs are column refs to
  /// precomputed "__fused_agg<i>" columns).
  AggregateOp agg_spec;
  int fused_ops = 0;
};

/// Lowers `ops` (bottom-up, from optimizer/fusion.h matching) against the
/// source schema. Returns kUnsupported when the chain cannot be proven
/// byte-identical — callers fall back to per-operator execution.
Result<FusedPipeline> CompileFusedPipeline(const std::vector<const Plan*>& ops,
                                           const SchemaPtr& source_schema);

/// Runs the fused morsel loop over `source` (schema must equal the one the
/// pipeline was lowered against). Emits one "rel.Fused" engine span with
/// fused_ops/compiled counters instead of per-operator spans.
Result<TablePtr> ExecuteFused(const FusedPipeline& fp, const TablePtr& source);

}  // namespace relational
}  // namespace nexus

#endif  // NEXUS_RELATIONAL_FUSED_H_
