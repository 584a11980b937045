// Columnar relational engine — the framework's stand-in for a SQL back end
// (the paper's SQLServer-class provider).
//
// Unlike the reference executor's boxed row-at-a-time interpretation, this
// engine works on typed column vectors: hashes are computed column-wise,
// join/aggregate keys take an int64 fast path, and filters produce selection
// vectors without materializing Values. The engine exposes plain functions
// over tables; plan translation lives in the provider layer.
#ifndef NEXUS_RELATIONAL_ENGINE_H_
#define NEXUS_RELATIONAL_ENGINE_H_

#include <limits>
#include <vector>

#include "core/plan.h"
#include "expr/expr.h"
#include "types/table.h"

namespace nexus {

class ScopedCharge;
namespace telemetry {
class SpanGuard;
}  // namespace telemetry

namespace relational {

/// Filters rows by a boolean predicate (vectorized evaluation; null → drop).
Result<TablePtr> Filter(const TablePtr& input, const Expr& predicate);

/// Keeps the named columns, in order.
Result<TablePtr> Project(const TablePtr& input,
                         const std::vector<std::string>& columns);

/// Appends computed columns.
Result<TablePtr> Extend(
    const TablePtr& input,
    const std::vector<std::pair<std::string, ExprPtr>>& defs);

/// Hash equi-join with optional residual predicate. Output layout matches
/// the algebra's join rule: left fields then right non-key fields. It is
/// JoinPairs followed by GatherJoin (semi/anti joins gather left rows only).
Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const JoinOp& spec);

/// The (left row, right row) pairs an inner join of `left` and `right`
/// under `spec` keeps, appended to `li`/`ri` in lexicographic order: the
/// key columns' HashJoinPairs (the cross product when `spec` has no keys),
/// then the residual predicate. Working memory is charged to `working_set`
/// and `span` gets the spill counters. HashJoin and the incremental view's
/// delta join share it.
Status JoinPairs(const TablePtr& left, const TablePtr& right,
                 const JoinOp& spec, ScopedCharge* working_set,
                 telemetry::SpanGuard* span, std::vector<int64_t>* li,
                 std::vector<int64_t>* ri);

/// The joined rows of the pairs (li[p], ri[p]): left fields, then right
/// non-key fields (dimension tags drop), gathered one column per task. Left
/// rows past the end of `ri` (a left join's unmatched rows) take nulls on
/// the right.
Result<TablePtr> GatherJoin(const TablePtr& left, const TablePtr& right,
                            const JoinOp& spec, const std::vector<int64_t>& li,
                            const std::vector<int64_t>& ri);

/// Candidate pairs of a hash equi-join of `left` and `right` on the key
/// columns `lk`/`rk` (non-empty, same length; null keys never match).
/// Appends to `li`/`ri` the (left row, right row) pairs in lexicographic
/// order — left rows ascending, each left row's matches in right-row order —
/// independent of the thread count. The build is one flat HashIndex
/// (relational/hash_index.h) over `right`, partition-parallel; the probe
/// runs morsel-parallel, each morsel filling its own pair vectors. The
/// index's bytes and the pair vectors are charged to `working_set`; when
/// that working set would cross the query's spill budget the pairs are
/// computed out of core (Grace partitioning, one index per partition, same
/// order) and `span` gets spill counters. Returns true when the pairs were
/// computed out of core. HashJoin and algebra::Join share it.
Result<bool> HashJoinPairs(const TablePtr& left, const TablePtr& right,
                           const std::vector<int>& lk,
                           const std::vector<int>& rk,
                           ScopedCharge* working_set,
                           telemetry::SpanGuard* span,
                           std::vector<int64_t>* li, std::vector<int64_t>* ri);

/// Multi-key stable sort that keeps the first `max_rows` rows of the sorted
/// order (all of them by default). A bound below the row count sorts only
/// those rows (top-k), byte-identical to the full sort's prefix.
Result<TablePtr> Sort(const TablePtr& input, const std::vector<SortKey>& keys,
                      int64_t max_rows = std::numeric_limits<int64_t>::max());

/// Row range.
Result<TablePtr> Limit(const TablePtr& input, int64_t limit, int64_t offset);

/// Duplicate elimination over all columns (keeps first occurrence).
Result<TablePtr> Distinct(const TablePtr& input);

/// Concatenation (schemas must match exactly).
Result<TablePtr> Union(const TablePtr& left, const TablePtr& right);

/// Schema-only rename.
Result<TablePtr> Rename(
    const TablePtr& input,
    const std::vector<std::pair<std::string, std::string>>& mapping);

/// Per-row hash of the key columns (int64 fast path; generic otherwise).
/// Exposed for tests and the aggregate/join internals.
Result<std::vector<uint64_t>> HashRows(const Table& input,
                                       const std::vector<int>& key_cols);

/// Group-key equality of row `ar` of `a` on `acols` and row `br` of `b` on
/// `bcols` (paired, same types), with SQL GROUP BY's null handling: nulls
/// equal each other. Distinct, the grouped fold (algebra::LowerAggregate)
/// and the incremental view's fold group by it; inline, for their per-row
/// loops. Compares the typed values with Value::Compare's semantics, so
/// floats are equal unless x < y or x > y (NaN equals everything, -0.0
/// equals +0.0).
inline bool GroupKeysEqual(const Table& a, int64_t ar,
                           const std::vector<int>& acols, const Table& b,
                           int64_t br, const std::vector<int>& bcols) {
  const size_t ai = static_cast<size_t>(ar), bi = static_cast<size_t>(br);
  for (size_t k = 0; k < acols.size(); ++k) {
    const Column& ca = a.column(acols[k]);
    const Column& cb = b.column(bcols[k]);
    bool na = ca.IsNull(ar), nb = cb.IsNull(br);
    if (na != nb) return false;
    if (na) continue;
    switch (ca.type()) {
      case DataType::kInt64:
        if (ca.ints()[ai] != cb.ints()[bi]) return false;
        break;
      case DataType::kFloat64: {
        double x = ca.doubles()[ai], y = cb.doubles()[bi];
        if (x < y || x > y) return false;
        break;
      }
      case DataType::kBool:
        if ((ca.bools()[ai] != 0) != (cb.bools()[bi] != 0)) return false;
        break;
      case DataType::kString:
        if (ca.strings()[ai] != cb.strings()[bi]) return false;
        break;
    }
  }
  return true;
}

/// GroupKeysEqual of rows `ar` and `br` of one table on `cols`.
inline bool GroupKeysEqual(const Table& t, int64_t ar, int64_t br,
                           const std::vector<int>& cols) {
  return GroupKeysEqual(t, ar, cols, t, br, cols);
}

}  // namespace relational
}  // namespace nexus

#endif  // NEXUS_RELATIONAL_ENGINE_H_
