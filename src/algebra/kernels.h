// The three generic kernels of the semi-ring layer — Ext (flatmap), Join
// (⊗-merge on shared keys), Union (⊕-merge) — plus the derived forms
// Normalize (⊕-collapse of duplicate keys) and Reduce (key projection +
// Normalize). Lara/LaraDB show these three suffice to express relational
// aggregation, sparse matrix multiply, and graph relaxation steps; the
// lowering entry points at the bottom are exactly those expressions.
//
// Determinism contract: every kernel is byte-identical for any thread
// count. Join hashes with relational::HashRows, builds one flat index
// (relational/hash_index.h: each bucket's entries contiguous and in
// ascending row order) and probes in morsel order; Normalize scatters row
// indices once by hash partition, folds each partition's own rows, and
// merges groups back into first-seen order. ⊕ folds with op `+` are seeded from the ring zero and applied in
// ascending row order — bit-identical to the reference executor's
// `acc = 0; acc += v` loop — while min/max/or folds seed from the first
// value, matching its has-extreme seeding.
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
// The grouped ⊕-fold: the one grouped aggregation every engine runs.
// ---------------------------------------------------------------------------

/// Per-(group, fold) accumulator. `+`-folds accumulate from the ring zero
/// (bit-identical to the reference executor's `acc = 0; acc += v` loop);
/// min/max/or folds seed from the first value (its has-extreme seeding).
struct MonoidState {
  int64_t count = 0;  ///< non-null contributions (count_star: all rows)
  int64_t iacc = 0;
  double facc = 0.0;  ///< under `+`, int64 inputs also sum here as doubles
  std::string sacc;
  bool seen = false;
};

/// One ⊕-fold over one input column.
struct FoldSpec {
  MonoidOp op = MonoidOp::kAdd;
  bool lift = false;        ///< fold ring-one per entry (COUNT-style rings)
  bool count_star = false;  ///< count every row, ignoring the input column
  int64_t one_i = 1;
  double one_f = 1.0;
};

/// The fold an aggregate function runs over a column: SUM and AVG fold
/// with `+` (AVG is that (sum, count) pair finished by a division),
/// MIN/MAX with the tropical ⊕s, COUNT with the lifted ring — per non-null
/// value of any type.
FoldSpec AggFold(AggFunc func);

/// AggFold for one aggregate of a plan; count(*) (no input) folds every row.
Result<FoldSpec> AggFold(const AggSpec& agg);

/// Folds row `r` of `c` into `st`; null inputs contribute nothing. Inline:
/// every grouped fold's per-row loop runs it, and it must inline there.
inline Status FoldRow(const FoldSpec& f, const Column& c, int64_t r,
                      MonoidState* st) {
  if (f.count_star) {
    ++st->count;
    return Status::OK();
  }
  if (c.IsNull(r)) return Status::OK();
  if (f.lift) {
    // Lifted rings fold ring-one per non-null value, whatever its type.
    ++st->count;
    if (f.op == MonoidOp::kAdd) {
      st->iacc += f.one_i;
      st->facc += f.one_f;
    } else {
      st->iacc = st->seen ? ApplyI(f.op, st->iacc, f.one_i) : f.one_i;
      st->facc = st->seen ? ApplyF(f.op, st->facc, f.one_f) : f.one_f;
    }
    st->seen = true;
    return Status::OK();
  }
  if (c.type() == DataType::kBool) {
    return Status::TypeError("cannot aggregate bool input");
  }
  ++st->count;
  switch (c.type()) {
    case DataType::kInt64: {
      int64_t v = c.ints()[static_cast<size_t>(r)];
      if (f.op == MonoidOp::kAdd) {
        st->iacc += v;
        st->facc += static_cast<double>(v);  // AVG finishes from it
      } else {
        st->iacc = st->seen ? ApplyI(f.op, st->iacc, v) : v;
        st->facc = st->seen ? ApplyF(f.op, st->facc, static_cast<double>(v))
                            : static_cast<double>(v);
      }
      break;
    }
    case DataType::kFloat64: {
      double v = c.doubles()[static_cast<size_t>(r)];
      if (f.op == MonoidOp::kAdd) {
        st->facc += v;
      } else {
        st->facc = st->seen ? ApplyF(f.op, st->facc, v) : v;
      }
      break;
    }
    case DataType::kString: {
      const std::string& s = c.strings()[static_cast<size_t>(r)];
      // Strings extend the fold as an ordered monoid under min/max only;
      // other ops contribute count alone.
      if (f.op == MonoidOp::kMin) {
        if (!st->seen || s < st->sacc) st->sacc = s;
      } else if (f.op == MonoidOp::kMax) {
        if (!st->seen || s > st->sacc) st->sacc = s;
      }
      break;
    }
    case DataType::kBool:
      break;  // unreachable (checked above)
  }
  st->seen = true;
  return Status::OK();
}

/// Finishes an aggregate's fold state over input type `in` into its SQL
/// value: empty SUM/AVG/MIN/MAX → NULL, AVG → facc / count.
Value FinishAgg(const MonoidState& st, AggFunc func, DataType in);

/// Grouped aggregation as Reduce: group keys index an associative array
/// whose per-aggregate values fold with the aggregate's monoid (AggFold).
/// SQL's null handling: null group keys match each other, null inputs are
/// skipped, a global aggregate over no rows yields one row. Groups come out
/// in first-seen order, byte-identical at any thread count or spill budget
/// (one scatter by hash partition, then a fold per partition over its own
/// rows; Grace-partitioned out of core). The group states are charged to
/// the query's MemoryMeter while they live.
Result<TablePtr> LowerAggregate(const TablePtr& input, const AggregateOp& spec);

/// Bumps `op`'s counter and algebra.ops_lowered (EXPLAIN ANALYZE's
/// "algebra:" line): one engine operation ran on the algebra's kernels.
void CountLowered(const char* op);

}  // namespace algebra
}  // namespace nexus

#endif  // NEXUS_ALGEBRA_KERNELS_H_
