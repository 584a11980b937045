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
/// the algebra's join rule: left fields then right non-key fields.
Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const JoinOp& spec);

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

/// Group-key equality of rows `ar` and `br` on `cols`, with SQL GROUP BY's
/// null handling: nulls equal each other. Distinct and the grouped fold
/// (algebra::LowerAggregate) group by it; inline, for their per-row loops.
/// Compares the typed values with Value::Compare's semantics, so floats are
/// equal unless x < y or x > y (NaN equals everything, -0.0 equals +0.0).
inline bool GroupKeysEqual(const Table& t, int64_t ar, int64_t br,
                           const std::vector<int>& cols) {
  const size_t a = static_cast<size_t>(ar), b = static_cast<size_t>(br);
  for (int c : cols) {
    const Column& col = t.column(c);
    bool na = col.IsNull(ar), nb = col.IsNull(br);
    if (na != nb) return false;
    if (na) continue;
    switch (col.type()) {
      case DataType::kInt64:
        if (col.ints()[a] != col.ints()[b]) return false;
        break;
      case DataType::kFloat64: {
        double x = col.doubles()[a], y = col.doubles()[b];
        if (x < y || x > y) return false;
        break;
      }
      case DataType::kBool:
        if ((col.bools()[a] != 0) != (col.bools()[b] != 0)) return false;
        break;
      case DataType::kString:
        if (col.strings()[a] != col.strings()[b]) return false;
        break;
    }
  }
  return true;
}

}  // namespace relational
}  // namespace nexus

#endif  // NEXUS_RELATIONAL_ENGINE_H_
