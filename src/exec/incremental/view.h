// Incremental view maintenance: the hot refresh path recomputes from the
// catalog's append tail instead of from scratch.
//
// A registered view is a plan over catalog tables. Refresh() pulls each
// scanned table's delta (InMemoryCatalog::DeltaSince), pushes it through the
// view's delta form (optimizer/incremental.h), and folds the result into
// retained operator state. The state runs on the engine's own kernels:
//   - A join keeps both sides' rows and joins only the deltas
//     (Δ(R⋈S) = ΔR⋈S_old ∪ R_new⋈ΔS) with relational::JoinPairs, the
//     HashJoin pair step, gathering each term with relational::GatherJoin.
//   - A root Reduce⊕ folds the delta with the grouped fold of
//     algebra::LowerAggregate: a relational::GroupIndex over typed
//     representative group keys, a flat MonoidState array (groups × folds),
//     algebra::FoldRow, finished by algebra::FinishAgg.
//
// Byte-identity-or-refuse: every refresh returns exactly the bytes a full
// recompute would, at any thread count, budget, and append schedule. The
// mechanism is a scratch-order key per delta row — the row's position in the
// full-recompute output of its operator, as a lexicographic int64 vector
// (scan = [row], union = [branch]++child, join = left++right) — so deltas
// that land mid-stream are merged back into full-recompute order. Keys are
// stored once, in one flat array per batch or store (`width` entries per
// row); join sides and a non-aggregate root's output are one keyed row store
// with one merge. Plans the rewrite cannot maintain bit-exactly are refused
// statically (RewriteToDelta) and served by full recompute; conditions only
// visible at refresh time — a table replaced under the view (generation
// bump), an order-sensitive ⊕-fold (float SUM/MIN/MAX, AVG) receiving an
// out-of-order delta row — refuse at runtime and fall back to a full
// rebuild through the same delta pipeline.
//
// Retained state is charged to the calling thread's MemoryMeter and, when
// the spill policy asks (exec/spill), join sides are parked in SpillFiles
// (their keys as hidden columns of the frame) and reloaded on the next
// refresh. Every entry point, ShedState included, holds the registry lock.
#ifndef NEXUS_EXEC_INCREMENTAL_VIEW_H_
#define NEXUS_EXEC_INCREMENTAL_VIEW_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/catalog.h"
#include "core/plan.h"
#include "types/table.h"

namespace nexus {
namespace incremental {

/// What one Refresh() did, for telemetry and EXPLAIN ANALYZE.
struct RefreshInfo {
  bool incremental = false;   ///< delta path ran (false: full recompute/rebuild)
  bool fell_back = false;     ///< a runtime refusal forced a full rebuild
  std::string refusal;        ///< why not incremental; empty when it was
  int64_t delta_rows = 0;     ///< delta rows folded at the root
  int64_t state_bytes = 0;    ///< retained operator state after this refresh
};

/// Full recompute of a view plan against `catalog` using the relational
/// engine — the reference the incremental path must match byte-for-byte,
/// and the execution path for statically refused plans.
Result<TablePtr> ExecuteViewPlan(const Plan& plan,
                                 const InMemoryCatalog& catalog);

/// Registered views over one catalog. Refresh() is serialized per registry;
/// the catalog may take appends concurrently from other threads.
class ViewRegistry {
 public:
  explicit ViewRegistry(InMemoryCatalog* catalog);
  ~ViewRegistry();
  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  /// Registers `name` and runs the initial build (a full rebuild through the
  /// delta pipeline, or a full recompute for statically refused plans).
  Status Register(const std::string& name, PlanPtr plan);
  Status Unregister(const std::string& name);

  /// Brings the view up to date with the catalog and returns its result.
  Result<TablePtr> Refresh(const std::string& name, RefreshInfo* info = nullptr);

  /// The last refreshed result (no catalog access).
  Result<TablePtr> Current(const std::string& name) const;

  /// The view's delta form, one node per line — or its static refusal.
  Result<std::string> Describe(const std::string& name) const;

  /// Retained operator state across all views, in bytes (parked state not
  /// counted — it has been released to disk).
  int64_t state_bytes() const;

  /// Parks join sides on disk (largest first) until retained state is under
  /// `budget_bytes`; they reload on the next refresh that needs them.
  /// Refresh() sheds automatically when spill::ShouldSpill says so.
  Status ShedState(int64_t budget_bytes);

 private:
  struct ViewImpl;

  // The *Locked members expect mu_ held.
  Result<TablePtr> RefreshLocked(const std::string& name, RefreshInfo* info);
  Status ShedStateLocked(int64_t budget_bytes);
  int64_t StateBytesLocked() const;
  /// Sets the incremental.state_bytes gauge to the total; returns it.
  int64_t PublishStateBytesLocked() const;

  InMemoryCatalog* catalog_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ViewImpl>> views_;
};

}  // namespace incremental
}  // namespace nexus

#endif  // NEXUS_EXEC_INCREMENTAL_VIEW_H_
