// Operator fusion: recognizes Filter→Extend/Project→Aggregate chains that a
// provider can execute as one fused morsel loop over the chain's source —
// a selection register plus compiled expression outputs instead of an
// intermediate materialized table per operator (ROADMAP item 2; the
// compile-once/run-many half of the paper's Performance desideratum).
//
// This header only MATCHES chains; lowering and execution live in
// relational/fused.h. Every matched chain is tried fused; fusion never
// changes results — the fused executor is byte-identical to running the
// operators one-by-one (relational/fused.h documents why) and falls back to
// the per-operator path whenever lowering refuses.
#ifndef NEXUS_OPTIMIZER_FUSION_H_
#define NEXUS_OPTIMIZER_FUSION_H_

#include <optional>
#include <vector>

#include "core/plan.h"

namespace nexus {

/// A maximal fusable chain rooted at some plan node: `ops` lists the chain
/// bottom-up (ops[0] applies to the source first), each a kSelect, kProject,
/// or kExtend node — except the last, which may additionally be a
/// kAggregate. `source` is the subtree below the chain; pointers borrow from
/// the matched plan.
struct FusedChain {
  const Plan* source = nullptr;
  std::vector<const Plan*> ops;
};

/// Matches the longest fusable chain rooted at `root` (kAggregate allowed at
/// the root only). Returns nullopt when fewer than two operators would fuse
/// — a single operator gains nothing over the normal path.
std::optional<FusedChain> MatchFusedChain(const Plan& root);

}  // namespace nexus

#endif  // NEXUS_OPTIMIZER_FUSION_H_
