#include "algebra/kernels.h"

#include <algorithm>
#include <utility>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "exec/spill/spill.h"
#include "expr/eval.h"
#include "relational/engine.h"
#include "relational/hash_index.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "types/schema.h"

namespace nexus {
namespace algebra {

namespace {

void Count(const char* name) {
  telemetry::MetricsRegistry::Global().counter(name)->Increment();
}

// ---------------------------------------------------------------------------
// The shared ⊕-fold core. Normalize/Union/Reduce and LowerAggregate all run
// on this one implementation — the "write it once, not four times" payoff.
// ---------------------------------------------------------------------------

/// Folded groups in first-seen order: group g's representative row is
/// rep_row[g] and its fold states are states[g * folds.size() + a].
struct GroupFoldOut {
  std::vector<int64_t> rep_row;
  std::vector<MonoidState> states;
};

/// Folds the rows for_rows visits (ascending) into `out`, finding each
/// row's group in a flat GroupIndex — the sequential ⊕ order. A group's rows
/// all share one hash, so when rows are split by hash partition one
/// partition folds all of a group's rows, in the same order as one pass.
template <typename ForRows>
Status AccumulateFold(const Table& input, const std::vector<int>& group_cols,
                      const std::vector<FoldSpec>& folds,
                      const std::vector<Column>& fold_inputs,
                      const uint64_t* hashes, ForRows for_rows,
                      GroupFoldOut* out) {
  const size_t nf = folds.size();
  relational::GroupIndex index;
  Status st;
  for_rows([&](int64_t r) {
    if (!st.ok()) return;
    bool inserted = false;
    const int64_t g = index.FindOrInsert(
        hashes[r],
        [&](int64_t cand) {
          return relational::GroupKeysEqual(
              input, out->rep_row[static_cast<size_t>(cand)], r, group_cols);
        },
        &inserted);
    if (inserted) {
      out->rep_row.push_back(r);
      out->states.resize(out->states.size() + nf);
    }
    MonoidState* gs = out->states.data() + static_cast<size_t>(g) * nf;
    for (size_t a = 0; a < nf; ++a) {
      st = FoldRow(folds[a], fold_inputs[a], r, &gs[a]);
      if (!st.ok()) return;
    }
  });
  return st;
}

/// Merges folds of disjoint hash partitions, whose rep_rows are global row
/// numbers, into one: groups sorted by first row, which is the first-seen
/// order of one sequential pass.
GroupFoldOut MergeByFirstRow(std::vector<GroupFoldOut> parts, size_t nf) {
  struct GroupRef {
    int64_t row;
    size_t part;
    size_t idx;
  };
  std::vector<GroupRef> order;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t g = 0; g < parts[p].rep_row.size(); ++g) {
      order.push_back({parts[p].rep_row[g], p, g});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const GroupRef& a, const GroupRef& b) { return a.row < b.row; });
  GroupFoldOut out;
  out.rep_row.reserve(order.size());
  out.states.resize(order.size() * nf);
  for (size_t g = 0; g < order.size(); ++g) {
    const GroupRef& gr = order[g];
    out.rep_row.push_back(gr.row);
    auto first = parts[gr.part].states.begin() +
                 static_cast<std::ptrdiff_t>(gr.idx * nf);
    std::move(first, first + static_cast<std::ptrdiff_t>(nf),
              out.states.begin() + static_cast<std::ptrdiff_t>(g * nf));
  }
  return out;
}

/// AccumulateFold over every row in ascending order.
Status FoldAllRows(const Table& input, const std::vector<int>& group_cols,
                   const std::vector<FoldSpec>& folds,
                   const std::vector<Column>& fold_inputs,
                   const uint64_t* hashes, GroupFoldOut* out) {
  const int64_t n = input.num_rows();
  return AccumulateFold(input, group_cols, folds, fold_inputs, hashes,
                        [n](auto f) {
                          for (int64_t r = 0; r < n; ++r) f(r);
                        },
                        out);
}

// Out-of-core grouped ⊕-fold: Grace-partition a (keys + fold inputs)
// working table by group hash, fold each loaded partition with the ordinary
// sequential pass, and sort the merged groups by their global rep row. A
// group's rows share one hash, so one partition folds them all in ascending
// original-row order — the sequential ⊕ order — and the merge restores
// first-seen group order.
Result<GroupFoldOut> SpillGroupFold(const Table& input,
                                    const std::vector<int>& group_cols,
                                    const std::vector<FoldSpec>& folds,
                                    const std::vector<Column>& fold_inputs,
                                    const std::vector<uint64_t>& hashes,
                                    telemetry::SpanGuard* span) {
  std::vector<Field> wfields;
  std::vector<Column> wcols;
  std::vector<int> wgroup_cols;
  for (size_t g = 0; g < group_cols.size(); ++g) {
    Field f = input.schema()->field(group_cols[g]);
    f.is_dimension = false;
    wfields.push_back(std::move(f));
    wcols.push_back(input.column(group_cols[g]));
    wgroup_cols.push_back(static_cast<int>(g));
  }
  std::vector<int> fold_slot(folds.size(), -1);
  for (size_t a = 0; a < folds.size(); ++a) {
    if (folds[a].count_star) continue;  // never reads its column
    fold_slot[a] = static_cast<int>(wcols.size());
    wfields.push_back(Field::Attr(StrCat("__fold_", static_cast<int64_t>(a)),
                                  fold_inputs[a].type()));
    wcols.push_back(fold_inputs[a]);
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr wschema, Schema::Make(std::move(wfields)));
  NEXUS_ASSIGN_OR_RETURN(TablePtr working,
                         Table::Make(wschema, std::move(wcols)));

  spill::PartitionedSpiller::Options opts;
  opts.budget_bytes = spill::SpillBudgetBytes();
  opts.tag = "fold";
  opts.release_inputs = true;
  spill::PartitionedSpiller spiller(&spill::SpillManager::Global(), opts);

  std::vector<GroupFoldOut> folded;
  Status st = spiller.Run(
      {{working, &hashes}},
      [&](const std::vector<TablePtr>& parts) -> Status {
        const Table& wp = *parts[0];
        const auto& rows = wp.column(wp.num_columns() - 2).ints();
        const auto& hbits = wp.column(wp.num_columns() - 1).ints();
        // The hash column holds the row hashes' bits as int64.
        const auto* local_hashes = reinterpret_cast<const uint64_t*>(hbits.data());
        std::vector<Column> local_inputs;
        for (size_t a = 0; a < folds.size(); ++a) {
          local_inputs.push_back(fold_slot[a] < 0 ? Column(DataType::kInt64)
                                                  : wp.column(fold_slot[a]));
        }
        GroupFoldOut part;
        NEXUS_RETURN_NOT_OK(FoldAllRows(wp, wgroup_cols, folds, local_inputs,
                                        local_hashes, &part));
        for (int64_t& r : part.rep_row) r = rows[static_cast<size_t>(r)];
        folded.push_back(std::move(part));
        return Status::OK();
      });
  working.reset();
  NEXUS_RETURN_NOT_OK(st);
  GroupFoldOut out = MergeByFirstRow(std::move(folded), folds.size());
  Count("algebra.spilled_folds");
  span->AddCounter("spill_partitions", spiller.stats().partitions);
  span->AddCounter("spill_bytes", spiller.stats().bytes_spilled);
  return out;
}

/// The full grouped ⊕-fold: one pass over the rows in ascending order, or
/// — with several threads and enough rows — one scatter of the row indices
/// by hash partition (relational::PartitionRows, ascending within each
/// partition), a fold of each partition's own rows, and a merge that sorts
/// groups on their first row, which restores the sequential first-seen
/// group order. Anything built on this fold is therefore byte-identical at
/// any thread count. The group states are charged to `working_set` (the
/// caller keeps them until it has finished).
Result<GroupFoldOut> GroupFold(const Table& input,
                               const std::vector<int>& group_cols,
                               const std::vector<FoldSpec>& folds,
                               const std::vector<Column>& fold_inputs,
                               ScopedCharge* working_set,
                               telemetry::SpanGuard* span) {
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> hashes,
                         relational::HashRows(input, group_cols));
  GroupFoldOut out;
  const int64_t n = input.num_rows();
  // Out-of-core path: partition the (keys + fold inputs) working table to
  // disk when it would cross the query's budget.
  bool spill = false;
  if (!group_cols.empty() && n > 0) {
    int64_t working_bytes = 0;
    for (int c : group_cols) working_bytes += input.column(c).ByteSize();
    for (const Column& c : fold_inputs) working_bytes += c.ByteSize();
    spill = spill::ShouldSpill(working_bytes);
  }
  if (spill) {
    NEXUS_ASSIGN_OR_RETURN(out, SpillGroupFold(input, group_cols, folds,
                                               fold_inputs, hashes, span));
  } else if (GetThreadCount() == 1 || group_cols.empty() ||
             n < 2 * kMorselRows) {
    NEXUS_RETURN_NOT_OK(FoldAllRows(input, group_cols, folds, fold_inputs,
                                    hashes.data(), &out));
  } else {
    const int threads = GetThreadCount();
    const int bits = relational::HashPartitionBits(threads);
    const int parts = 1 << bits;
    relational::RowPartitions scatter = relational::PartitionRows(
        hashes.data(), n, bits, threads, [](int64_t) { return true; });
    std::vector<GroupFoldOut> partitions(static_cast<size_t>(parts));
    std::vector<Status> statuses(static_cast<size_t>(parts), Status::OK());
    ParallelFor(
        parts, 1,
        [&](int64_t pb, int64_t pe) {
          for (int64_t p = pb; p < pe; ++p) {
            const int64_t* first =
                scatter.rows.data() + scatter.offsets[static_cast<size_t>(p)];
            const int64_t* last =
                scatter.rows.data() + scatter.offsets[static_cast<size_t>(p) + 1];
            statuses[static_cast<size_t>(p)] = AccumulateFold(
                input, group_cols, folds, fold_inputs, hashes.data(),
                [first, last](auto f) {
                  for (const int64_t* r = first; r != last; ++r) f(*r);
                },
                &partitions[static_cast<size_t>(p)]);
          }
        },
        threads);
    for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);
    out = MergeByFirstRow(std::move(partitions), folds.size());
  }
  // The group states are an operator working set the type layer cannot see.
  working_set->Add(static_cast<int64_t>(out.rep_row.size()) *
                   static_cast<int64_t>(folds.size() * sizeof(MonoidState) + 64));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ext
// ---------------------------------------------------------------------------

Result<AssocArray> Ext(const AssocArray& a, const std::vector<Field>& out_keys,
                       const Field& out_value, const ExtFn& fn) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Ext");
  span.AddCounter("entries_in", a.num_entries());
  Count("algebra.ext");
  if (out_keys.empty()) {
    return Status::InvalidArgument("Ext output needs >= 1 key");
  }
  using Emitted = std::pair<std::vector<Value>, Value>;
  struct Piece {
    Status status;
    std::vector<Emitted> emitted;
  };
  NEXUS_ASSIGN_OR_RETURN(
      std::vector<Piece> parts,
      ParallelMorsels<Piece>(a.num_entries(), [&](int64_t b, int64_t e) {
        Piece out;
        std::vector<Value> keys(static_cast<size_t>(a.num_keys()));
        auto emit = [&out](std::vector<Value> ks, Value v) {
          out.emitted.emplace_back(std::move(ks), std::move(v));
        };
        for (int64_t r = b; r < e && out.status.ok(); ++r) {
          for (int i = 0; i < a.num_keys(); ++i) {
            keys[static_cast<size_t>(i)] = a.key_column(i).GetValue(r);
          }
          out.status = fn(keys, a.value_column().GetValue(r), emit);
        }
        return out;
      }));
  for (const Piece& p : parts) NEXUS_RETURN_NOT_OK(p.status);

  std::vector<Field> fields = out_keys;
  fields.push_back(out_value);
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  std::vector<Column> cols;
  for (int c = 0; c < schema->num_fields(); ++c) {
    cols.emplace_back(schema->field(c).type);
  }
  // Merge emitted entries in morsel order: output order is entry order.
  for (const Piece& part : parts) {
    for (const Emitted& em : part.emitted) {
      if (em.first.size() != out_keys.size()) {
        return Status::InvalidArgument("Ext emitted wrong key count");
      }
      for (size_t k = 0; k < em.first.size(); ++k) {
        NEXUS_RETURN_NOT_OK(cols[k].Append(em.first[k]));
      }
      NEXUS_RETURN_NOT_OK(cols[out_keys.size()].Append(em.second));
    }
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(cols)));
  span.AddCounter("entries", t->num_rows());
  return AssocArray::Wrap(std::move(t), static_cast<int>(out_keys.size()));
}

Result<AssocArray> ExtProject(const AssocArray& a,
                              const std::vector<std::string>& keep_keys) {
  Count("algebra.ext");
  if (keep_keys.empty()) {
    return Status::InvalidArgument("ExtProject needs >= 1 kept key");
  }
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (const std::string& k : keep_keys) {
    int i = a.FindKey(k);
    if (i < 0) return Status::PlanError(StrCat("unknown key '", k, "'"));
    fields.push_back(a.table()->schema()->field(i));
    cols.push_back(a.key_column(i));
  }
  fields.push_back(a.table()->schema()->field(a.num_keys()));
  cols.push_back(a.value_column());
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(cols)));
  return AssocArray::Wrap(std::move(t), static_cast<int>(keep_keys.size()));
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

Result<AssocArray> Join(const AssocArray& a, const AssocArray& b,
                        const Semiring& sr) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Join");
  span.AddCounter("entries_left", a.num_entries());
  span.AddCounter("entries_right", b.num_entries());
  telemetry::Count(QueryStat::kAlgebraJoins);

  // Shared keys, in a's key order; b's remaining keys pass through.
  std::vector<int> ak, bk;
  std::vector<int> b_extra;
  for (int i = 0; i < a.num_keys(); ++i) {
    int j = b.FindKey(a.key_name(i));
    if (j >= 0) {
      ak.push_back(i);
      bk.push_back(j);
    }
  }
  if (ak.empty()) {
    return Status::InvalidArgument("Join requires >= 1 shared key attribute");
  }
  for (int j = 0; j < b.num_keys(); ++j) {
    if (std::find(bk.begin(), bk.end(), j) == bk.end()) b_extra.push_back(j);
  }

  const Table& ta = *a.table();
  const Table& tb = *b.table();
  std::vector<int64_t> li, ri;
  ScopedCharge working_set;  // released when the join returns
  // Pair order is a-entry order with matches in b-entry order, independent
  // of the thread count; spills when the build side crosses the budget.
  NEXUS_ASSIGN_OR_RETURN(
      bool spilled, relational::HashJoinPairs(a.table(), b.table(), ak, bk,
                                              &working_set, &span, &li, &ri));
  if (spilled) Count("algebra.spilled_joins");
  const int64_t grain = kMorselRows;

  // Output schema: a's keys, b's non-shared keys, then the ⊗ value.
  std::vector<Field> fields;
  for (int i = 0; i < a.num_keys(); ++i) {
    fields.push_back(ta.schema()->field(i));
  }
  for (int j : b_extra) {
    Field f = tb.schema()->field(j);
    f.is_dimension = false;
    fields.push_back(f);
  }
  const Column& va = a.value_column();
  const Column& vb = b.value_column();
  const DataType vt =
      (va.type() == DataType::kInt64 && vb.type() == DataType::kInt64)
          ? DataType::kInt64
          : DataType::kFloat64;
  const std::string vname =
      a.value_name() == b.value_name()
          ? a.value_name()
          : StrCat(a.value_name(), "_", b.value_name());
  fields.push_back(Field::Attr(vname, vt));
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));

  std::vector<Column> out_cols;
  for (int i = 0; i < a.num_keys(); ++i) {
    out_cols.push_back(ta.column(i).Take(li));
  }
  for (int j : b_extra) {
    out_cols.push_back(tb.column(j).Take(ri));
  }
  // ⊗-combine the paired values (each morsel owns disjoint slots).
  const int64_t npairs = static_cast<int64_t>(li.size());
  if (vt == DataType::kInt64) {
    std::vector<int64_t> vals(static_cast<size_t>(npairs));
    ParallelFor(npairs, grain, [&](int64_t bgn, int64_t end) {
      for (int64_t p = bgn; p < end; ++p) {
        int64_t x = sr.lift
                        ? ApplyI(sr.times, sr.one_i, sr.one_i)
                        : ApplyI(sr.times,
                                 va.ints()[static_cast<size_t>(
                                     li[static_cast<size_t>(p)])],
                                 vb.ints()[static_cast<size_t>(
                                     ri[static_cast<size_t>(p)])]);
        vals[static_cast<size_t>(p)] = x;
      }
    });
    out_cols.push_back(Column::FromInt64(std::move(vals)));
  } else {
    auto load = [](const Column& c, int64_t r) {
      return c.type() == DataType::kInt64
                 ? static_cast<double>(c.ints()[static_cast<size_t>(r)])
                 : c.doubles()[static_cast<size_t>(r)];
    };
    std::vector<double> vals(static_cast<size_t>(npairs));
    ParallelFor(npairs, grain, [&](int64_t bgn, int64_t end) {
      for (int64_t p = bgn; p < end; ++p) {
        double x = sr.lift
                       ? ApplyF(sr.times, sr.one_f, sr.one_f)
                       : ApplyF(sr.times, load(va, li[static_cast<size_t>(p)]),
                                load(vb, ri[static_cast<size_t>(p)]));
        vals[static_cast<size_t>(p)] = x;
      }
    });
    out_cols.push_back(Column::FromFloat64(std::move(vals)));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(out_cols)));
  span.AddCounter("entries", t->num_rows());
  return AssocArray::Wrap(std::move(t),
                          a.num_keys() + static_cast<int>(b_extra.size()));
}

// ---------------------------------------------------------------------------
// Union / Normalize / Reduce
// ---------------------------------------------------------------------------

Result<AssocArray> Normalize(const AssocArray& a, const Semiring& sr) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Normalize");
  span.AddCounter("entries_in", a.num_entries());
  Count("algebra.normalize");
  std::vector<int> group_cols;
  for (int i = 0; i < a.num_keys(); ++i) group_cols.push_back(i);
  std::vector<FoldSpec> folds(1);
  folds[0].op = sr.plus;
  folds[0].lift = sr.lift;
  folds[0].one_i = sr.one_i;
  folds[0].one_f = sr.one_f;
  std::vector<Column> inputs = {a.value_column()};
  ScopedCharge working_set;  // released when Normalize returns
  NEXUS_ASSIGN_OR_RETURN(GroupFoldOut folded,
                         GroupFold(*a.table(), group_cols, folds, inputs,
                                   &working_set, &span));
  std::vector<Column> out_cols;
  for (int c : group_cols) {
    out_cols.push_back(a.table()->column(c).Take(folded.rep_row));
  }
  Column vcol(a.value_type());
  vcol.Reserve(static_cast<int64_t>(folded.states.size()));
  for (const MonoidState& st : folded.states) {
    if (a.value_type() == DataType::kInt64) {
      vcol.AppendInt64(st.iacc);
    } else {
      vcol.AppendFloat64(st.facc);
    }
  }
  out_cols.push_back(std::move(vcol));
  NEXUS_ASSIGN_OR_RETURN(
      TablePtr t, Table::Make(a.table()->schema(), std::move(out_cols)));
  span.AddCounter("entries", t->num_rows());
  return AssocArray::Wrap(std::move(t), a.num_keys());
}

Result<AssocArray> Union(const AssocArray& a, const AssocArray& b,
                         const Semiring& sr) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Union");
  telemetry::Count(QueryStat::kAlgebraUnions);
  if (a.num_keys() != b.num_keys()) {
    return Status::TypeError("Union key-arity mismatch");
  }
  for (int i = 0; i < a.num_keys(); ++i) {
    if (a.key_name(i) != b.key_name(i) ||
        a.key_column(i).type() != b.key_column(i).type()) {
      return Status::TypeError(
          StrCat("Union key mismatch at position ", i));
    }
  }
  if (a.value_type() != b.value_type()) {
    return Status::TypeError("Union value-type mismatch");
  }
  // Concatenate a then b (a's names win), then ⊕-collapse: entries of `a`
  // fold before entries of `b` within each shared key.
  std::vector<Column> cols = a.table()->columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    NEXUS_RETURN_NOT_OK(cols[c].AppendColumn(b.table()->column(static_cast<int>(c))));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr both,
                         Table::Make(a.table()->schema(), std::move(cols)));
  NEXUS_ASSIGN_OR_RETURN(AssocArray wrapped,
                         AssocArray::Wrap(std::move(both), a.num_keys()));
  return Normalize(wrapped, sr);
}

Result<AssocArray> Reduce(const AssocArray& a,
                          const std::vector<std::string>& keep_keys,
                          const Semiring& sr) {
  NEXUS_ASSIGN_OR_RETURN(AssocArray projected, ExtProject(a, keep_keys));
  return Normalize(projected, sr);
}

// ---------------------------------------------------------------------------
// Lowering: the aggregate fold
// ---------------------------------------------------------------------------

FoldSpec AggFold(AggFunc func) {
  FoldSpec f;
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      f.op = MonoidOp::kAdd;
      break;
    case AggFunc::kMin:
      f.op = MonoidOp::kMin;
      break;
    case AggFunc::kMax:
      f.op = MonoidOp::kMax;
      break;
    case AggFunc::kCount:
      f.op = MonoidOp::kAdd;
      f.lift = true;
      break;
  }
  return f;
}

Result<FoldSpec> AggFold(const AggSpec& agg) {
  FoldSpec f = AggFold(agg.func);
  if (agg.input == nullptr) {
    if (agg.func != AggFunc::kCount) {
      return Status::PlanError("only count may omit its input expression");
    }
    f.count_star = true;
  }
  return f;
}

Value FinishAgg(const MonoidState& st, AggFunc func, DataType in) {
  if (func == AggFunc::kCount) return Value::Int64(st.count);
  if (st.count == 0) return Value::Null();
  switch (func) {
    case AggFunc::kAvg:
      return Value::Float64(st.facc / static_cast<double>(st.count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (in == DataType::kString) return Value::String(st.sacc);
      break;
    default:
      break;
  }
  return in == DataType::kInt64 ? Value::Int64(st.iacc)
                                : Value::Float64(st.facc);
}

Result<TablePtr> LowerAggregate(const TablePtr& input,
                                const AggregateOp& spec) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Agg");
  span.AddCounter("rows_in", input->num_rows());
  CountLowered("algebra.agg_lowered");
  std::vector<int> group_cols;
  for (const std::string& g : spec.group_by) {
    NEXUS_ASSIGN_OR_RETURN(int i, input->schema()->FindFieldOrError(g));
    group_cols.push_back(i);
  }
  // Pre-evaluate aggregate inputs; count(*) reads no column.
  std::vector<Column> agg_inputs;
  std::vector<DataType> agg_types;
  std::vector<FoldSpec> folds;
  for (const AggSpec& a : spec.aggs) {
    NEXUS_ASSIGN_OR_RETURN(FoldSpec f, AggFold(a));
    folds.push_back(f);
    if (f.count_star) {
      agg_types.push_back(DataType::kInt64);
      agg_inputs.emplace_back(DataType::kInt64);
      continue;
    }
    NEXUS_ASSIGN_OR_RETURN(Column c, EvalExprVector(*a.input, *input));
    agg_types.push_back(c.type());
    agg_inputs.push_back(std::move(c));
  }
  ScopedCharge working_set;  // released when the aggregate returns
  NEXUS_ASSIGN_OR_RETURN(GroupFoldOut folded,
                         GroupFold(*input, group_cols, folds, agg_inputs,
                                   &working_set, &span));
  std::vector<int64_t> rep_row = std::move(folded.rep_row);
  std::vector<MonoidState> states = std::move(folded.states);
  // SQL semantics: a global aggregate over empty input yields one row.
  if (group_cols.empty() && rep_row.empty()) {
    rep_row.push_back(0);  // unused: no group columns to gather
    states.resize(spec.aggs.size());
  }
  std::vector<Field> fields;
  for (int c : group_cols) fields.push_back(input->schema()->field(c));
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    NEXUS_ASSIGN_OR_RETURN(DataType t,
                           AggResultType(spec.aggs[a].func, agg_types[a]));
    fields.push_back(Field::Attr(spec.aggs[a].output_name, t));
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  std::vector<Column> out_cols;
  for (int c : group_cols) out_cols.push_back(input->column(c).Take(rep_row));
  const size_t nf = spec.aggs.size();
  for (size_t a = 0; a < nf; ++a) {
    Column col(schema->field(static_cast<int>(group_cols.size() + a)).type);
    col.Reserve(static_cast<int64_t>(rep_row.size()));
    for (size_t g = 0; g < rep_row.size(); ++g) {
      NEXUS_RETURN_NOT_OK(col.Append(
          FinishAgg(states[g * nf + a], spec.aggs[a].func, agg_types[a])));
    }
    out_cols.push_back(std::move(col));
  }
  return Table::Make(schema, std::move(out_cols));
}

void CountLowered(const char* op) {
  Count(op);
  telemetry::Count(QueryStat::kOpsLowered);
}

}  // namespace algebra
}  // namespace nexus
