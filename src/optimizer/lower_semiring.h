// Semi-ring lowering pass: recognizes the plan operators whose execution
// runs on the semi-ring kernels in src/algebra — every aggregate (Union⊕
// folds; AVG is the `+` fold's (sum, count) pair finished by a division),
// sparse matrix multiply (Gustavson over plus_times), and PageRank steps (a
// plus_times push onto the base vector) — and counts them into
// OptimizerStats::ops_lowered.
//
// Like the fusion pass, this header only RECOGNIZES; the lowering itself
// happens engine-side (provider aggregates, sparse SpMV/SpGEMM, graph
// BFS/PageRank) where the runtime inputs are in hand. Lowered execution is
// byte-identical to the native engine paths (algebra/kernels.h and
// algebra/csr.h document why), so the pass never changes results — it
// widens *placement*: any engine can claim a lowered aggregate, which is
// what gives the cost-based planner more valid plans.
#ifndef NEXUS_OPTIMIZER_LOWER_SEMIRING_H_
#define NEXUS_OPTIMIZER_LOWER_SEMIRING_H_

#include "core/plan.h"

namespace nexus {

/// True when the operator at `node` is semi-ring lowerable: a kAggregate,
/// a kMatMul, or a kPageRank.
bool SemiringLowerable(const Plan& node);

/// Counts lowerable operators in the plan tree (including Iterate bodies).
int64_t CountLowerableOps(const Plan& plan);

}  // namespace nexus

#endif  // NEXUS_OPTIMIZER_LOWER_SEMIRING_H_
