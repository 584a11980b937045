// The delta-form rewrite: the optimizer pass that turns a registered view's
// plan into its incremental (insert-only) form, or refuses with a reason.
//
// Delta rules for appends (no retractions — catalog tables only grow):
//   Δ(σ_P(R))        = σ_P(ΔR)
//   Δ(π_A(R))        = π_A(ΔR)                    (also Extend / Rename)
//   Δ(R ⋈ S)         = ΔR ⋈ S_old  ∪  R_new ⋈ ΔS  (build-side state retained)
//   Δ(R ∪ S)         = ΔR ∪ ΔS
//   Reduce⊕ at root  = fold Δ into retained per-group accumulators
//                      (every aggregate; AVG is the `+` fold's (sum, count)
//                      pair finished by a division)
//
// Refusal table (mirrors the PR 7 byte-identity-or-refuse contract — a plan
// that cannot be maintained bit-exactly is not maintained at all):
//   outer/semi/anti join   unmatched rows need retraction when a match lands
//   keys-free (cross) join delta of |L|·|R| is not proportional to |Δ|
//   aggregate below root   its output changes by update, not by append
//   Sort/Limit/Distinct/…  appends land mid-order: output is not append-only
// and, at refresh time only: an out-of-order delta row reaching an
// order-sensitive fold — float SUM/MIN/MAX, and AVG over any input type,
// whose double sum depends on the order of its terms.
#ifndef NEXUS_OPTIMIZER_INCREMENTAL_H_
#define NEXUS_OPTIMIZER_INCREMENTAL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"

namespace nexus {
namespace incremental {

/// How each node of a supported view plan is maintained.
enum class DeltaKind {
  kScan,       ///< catalog tail: DeltaSince(watermark)
  kConst,      ///< inline Values: delta is empty after the initial build
  kFilter,     ///< predicate over the delta
  kProject,    ///< projection of the delta
  kExtend,     ///< extension of the delta
  kRename,     ///< rename of the delta
  kJoin,       ///< inner join: retained build state both sides, probe deltas
  kUnion,      ///< concatenation of child deltas
  kAggregate,  ///< root ⊕-fold into retained per-group accumulators
};

const char* DeltaKindName(DeltaKind kind);

/// One node of the delta form, mirroring the view plan's shape.
struct DeltaNode {
  DeltaKind kind;
  const Plan* plan = nullptr;  ///< the view plan node this maintains
  std::vector<std::unique_ptr<DeltaNode>> children;
};

/// Result of the rewrite: a delta tree, or the refusal that stopped it.
struct DeltaForm {
  std::unique_ptr<DeltaNode> root;
  std::string refusal;  ///< why root is null; empty when supported
  bool supported() const { return root != nullptr; }
};

/// Rewrites `plan` into its insert-only delta form. Purely structural — no
/// catalog access; runtime conditions (a table replaced under the view, an
/// order-sensitive fold receiving an out-of-order delta row) are
/// refused at refresh time instead, with a full-recompute fallback.
DeltaForm RewriteToDelta(const PlanPtr& plan);

/// One line per node: "kind op" for supported plans, or the refusal.
std::string DescribeDeltaForm(const DeltaForm& form);

}  // namespace incremental
}  // namespace nexus

#endif  // NEXUS_OPTIMIZER_INCREMENTAL_H_
