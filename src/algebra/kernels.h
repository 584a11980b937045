// The three generic kernels of the semi-ring layer — Ext (flatmap), Join
// (⊗-merge on shared keys), Union (⊕-merge) — plus the derived forms
// Normalize (⊕-collapse of duplicate keys) and Reduce (key projection +
// Normalize). Lara/LaraDB show these three suffice to express relational
// aggregation, sparse matrix multiply, and graph relaxation steps; the
// lowering entry points at the bottom are exactly those expressions.
//
// Determinism contract (PR 2): every kernel is byte-identical for any
// thread count. Join hashes with relational::HashRows, builds partitioned
// (pow-of-2 parts, ascending bucket chains) and probes in morsel order;
// Normalize folds with the same partition-by-hash + first-seen-order merge
// as relational::HashAggregate. ⊕ folds with op `+` are seeded from the
// ring zero and applied in ascending row order — bit-identical to the
// engines' `acc = 0; acc += v` loops — while min/max/or folds seed from the
// first value, matching the engines' has-extreme seeding.
#ifndef NEXUS_ALGEBRA_KERNELS_H_
#define NEXUS_ALGEBRA_KERNELS_H_

#include <functional>
#include <string>
#include <vector>

#include "algebra/assoc_array.h"
#include "algebra/semiring.h"
#include "core/plan.h"
#include "types/value.h"

namespace nexus {
namespace algebra {

/// Ext's per-entry function: receives the entry's keys and value and emits
/// zero or more output entries. Must be pure — it may run concurrently on
/// different morsels; emitted entries are concatenated in morsel order.
using ExtFn = std::function<Status(
    const std::vector<Value>& keys, const Value& value,
    const std::function<void(std::vector<Value>, Value)>& emit)>;

/// Flatmap over entries. `out_keys`/`out_value` define the output schema.
Result<AssocArray> Ext(const AssocArray& a, const std::vector<Field>& out_keys,
                       const Field& out_value, const ExtFn& fn);

/// Key projection (an Ext that drops key attributes without touching
/// values); columnar, no per-entry function. Duplicate keys may result —
/// follow with Normalize/Reduce to fold them.
Result<AssocArray> ExtProject(const AssocArray& a,
                              const std::vector<std::string>& keep_keys);

/// ⊗-merge: pairs entries of `a` and `b` agreeing on all shared key names
/// (at least one required). Output keys are a's keys followed by b's
/// non-shared keys; output value is va ⊗ vb (ring `one ⊗ one` when the ring
/// lifts). Pair order is a-entry order with b-matches in b-entry order —
/// the exact probe order of relational::HashJoin.
Result<AssocArray> Join(const AssocArray& a, const AssocArray& b,
                        const Semiring& sr);

/// ⊕-merge: concatenates a then b (schemas must agree) and Normalizes.
Result<AssocArray> Union(const AssocArray& a, const AssocArray& b,
                         const Semiring& sr);

/// Collapses duplicate keys with ⊕ in first-seen key order, folding
/// duplicates in ascending entry order (lifted rings fold `one` per entry).
Result<AssocArray> Normalize(const AssocArray& a, const Semiring& sr);

/// Drops the keys not in `keep_keys`, then Normalizes: the ⊕-aggregation
/// of the algebra. keep_keys may not be empty (a full reduction to a
/// scalar keeps a single constant key instead).
Result<AssocArray> Reduce(const AssocArray& a,
                          const std::vector<std::string>& keep_keys,
                          const Semiring& sr);

// ---------------------------------------------------------------------------
// Lowering entry points: existing engine ops expressed on the kernels.
// ---------------------------------------------------------------------------

/// True when every aggregate in `spec` is a ⊕-fold the algebra covers:
/// SUM/MIN/MAX/COUNT (AVG is a quotient, not a monoid fold — not lowered).
bool AggregateLowerable(const AggregateOp& spec);

/// Grouped aggregation as Reduce: group keys index an associative array
/// whose per-aggregate values fold with the aggregate's monoid (SUM → ⊕ of
/// plus_times, MIN/MAX → tropical ⊕s, COUNT → the lifted ring). Replicates
/// relational::HashAggregate byte-for-byte, including SQL's null handling
/// (null group keys match each other, null inputs are skipped, empty SUM/
/// MIN/MAX → NULL, a global aggregate over no rows yields one row) and its
/// partition-by-hash parallel contract.
Result<TablePtr> LowerAggregate(const TablePtr& input, const AggregateOp& spec);

/// Bumps `op`'s counter and algebra.ops_lowered (EXPLAIN ANALYZE's
/// "algebra:" line): one engine operation ran on the algebra's kernels.
void CountLowered(const char* op);

}  // namespace algebra
}  // namespace nexus

#endif  // NEXUS_ALGEBRA_KERNELS_H_
