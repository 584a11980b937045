// Logical optimizer for the Big Data Algebra: rule passes plus a
// statistics-driven join reordering pass.
//
// Passes (each individually switchable for ablation benches, E7/E14):
//   1. constant folding of embedded scalar expressions,
//   2. selection pushdown (through project/extend/rename/union/sort/
//      distinct/rebox/unbox/slice and into inner-join sides),
//   3. cost-based join reordering — DPsize over inner equi-join clusters
//      driven by catalog statistics (optimizer/join_order.h); runs after
//      pushdown so filtered cardinalities are visible to the cost model,
//   4. intent recognition — the inverse of core/expansion.h: a relational
//      join+multiply+sum-aggregate pipeline over dimension-tagged inputs is
//      rewritten back into a MatMul node so providers with native matrix
//      multiply can claim it (desideratum 3),
//   5. column pruning — narrows scans to the columns the plan actually uses.
#ifndef NEXUS_OPTIMIZER_OPTIMIZER_H_
#define NEXUS_OPTIMIZER_OPTIMIZER_H_

#include "core/catalog.h"
#include "core/plan.h"

namespace nexus {

struct OptimizerOptions {
  bool fold_constants = true;
  bool push_selections = true;
  /// Cost-based join reordering over catalog statistics (E14's knob).
  bool reorder_joins = true;
  bool recognize_intent = true;
  /// Recognition of semi-ring-lowerable operators (optimizer/lower_semiring.h).
  bool lower_semiring = true;
  bool prune_columns = true;
  /// Fixpoint bound for the pushdown pass.
  int max_passes = 10;
};

/// Statistics for bench reporting.
struct OptimizerStats {
  int64_t selections_pushed = 0;
  int64_t intents_recognized = 0;
  int64_t projects_inserted = 0;
  int64_t expressions_folded = 0;
  /// Join clusters whose order the DP enumerator actually changed.
  int64_t joins_reordered = 0;
  /// Estimated root cardinality of the optimized plan (-1: inestimable).
  int64_t estimated_rows_root = 0;
  /// Operators the engines will route through the semi-ring kernels
  /// (aggregate ⊕-folds, sparse multiplies, PageRank steps).
  int64_t ops_lowered = 0;
};

/// Rewrites `plan` under the given options. The result type-checks to the
/// same schema and is value-equivalent. `stats` may be null.
Result<PlanPtr> Optimize(const PlanPtr& plan, const Catalog& catalog,
                         const OptimizerOptions& options = {},
                         OptimizerStats* stats = nullptr);

}  // namespace nexus

#endif  // NEXUS_OPTIMIZER_OPTIMIZER_H_
