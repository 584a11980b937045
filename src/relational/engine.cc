#include "relational/engine.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "exec/spill/spill.h"
#include "expr/eval.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace relational {

namespace {

// Typed row equality on key columns; falls back to boxed comparison for
// mixed numeric types.
bool KeysEqual(const Table& a, int64_t ar, const std::vector<int>& ac,
               const Table& b, int64_t br, const std::vector<int>& bc) {
  for (size_t k = 0; k < ac.size(); ++k) {
    const Column& ca = a.column(ac[k]);
    const Column& cb = b.column(bc[k]);
    bool na = ca.IsNull(ar), nb = cb.IsNull(br);
    if (na || nb) return false;  // SQL: null keys never join/group-match...
    if (ca.type() == cb.type()) {
      switch (ca.type()) {
        case DataType::kInt64:
          if (ca.ints()[static_cast<size_t>(ar)] != cb.ints()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
        case DataType::kFloat64:
          if (ca.doubles()[static_cast<size_t>(ar)] !=
              cb.doubles()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
        case DataType::kBool:
          if (ca.bools()[static_cast<size_t>(ar)] != cb.bools()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
        case DataType::kString:
          if (ca.strings()[static_cast<size_t>(ar)] !=
              cb.strings()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
      }
    } else if (ca.GetValue(ar) != cb.GetValue(br)) {
      return false;
    }
  }
  return true;
}

constexpr uint64_t kNullHash = 0x6E756C6CULL;

bool RowHasNullKey(const Table& t, int64_t r, const std::vector<int>& cols) {
  for (int c : cols) {
    if (t.column(c).IsNull(r)) return true;
  }
  return false;
}

// Approximate per-row cost of a chained hash-table build (map node + chain
// slot) and per-candidate cost of the (l, r) pair vectors — the operator
// working sets the type layer cannot meter on its own.
constexpr int64_t kBuildBytesPerRow = 48;
constexpr int64_t kBytesPerPair = 2 * static_cast<int64_t>(sizeof(int64_t));

// Out-of-core candidate-pair computation: Grace-partition both sides by
// their key hashes, build/probe each partition pair in memory, and emit
// pairs of ORIGINAL row indices. Identity argument: the in-memory probe
// emits pairs in lexicographic (l, r) order — left rows ascending, and each
// left row matches within exactly one bucket whose chain holds right rows
// ascending — and equal keys share a full hash, so every bucket lands
// intact in exactly one partition. Sorting the merged per-partition pairs
// by (l, r) therefore reproduces the in-memory pair order exactly.
Status SpillJoinPairs(const TablePtr& left, const TablePtr& right,
                      const std::vector<uint64_t>& lh,
                      const std::vector<uint64_t>& rh,
                      const std::vector<int>& lk, const std::vector<int>& rk,
                      std::vector<int64_t>* li, std::vector<int64_t>* ri,
                      telemetry::SpanGuard* span) {
  spill::PartitionedSpiller::Options opts;
  opts.budget_bytes = spill::SpillBudgetBytes();
  opts.tag = "join";
  spill::PartitionedSpiller spiller(&spill::SpillManager::Global(), opts);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  ScopedCharge pair_charge;
  Status st = spiller.Run(
      {{left, &lh}, {right, &rh}},
      [&](const std::vector<TablePtr>& parts) -> Status {
        const Table& lp = *parts[0];
        const Table& rp = *parts[1];
        const auto& lrows = lp.column(lp.num_columns() - 2).ints();
        const auto& lhash = lp.column(lp.num_columns() - 1).ints();
        const auto& rrows = rp.column(rp.num_columns() - 2).ints();
        const auto& rhash = rp.column(rp.num_columns() - 1).ints();
        ScopedCharge build_charge;
        build_charge.Add(rp.num_rows() * kBuildBytesPerRow);
        std::unordered_map<uint64_t, std::vector<int64_t>> table;
        table.reserve(static_cast<size_t>(rp.num_rows()) + 1);
        for (int64_t r = 0; r < rp.num_rows(); ++r) {
          if (RowHasNullKey(rp, r, rk)) continue;
          table[static_cast<uint64_t>(rhash[static_cast<size_t>(r)])].push_back(r);
        }
        size_t before = pairs.size();
        for (int64_t l = 0; l < lp.num_rows(); ++l) {
          if (RowHasNullKey(lp, l, lk)) continue;
          auto it = table.find(static_cast<uint64_t>(lhash[static_cast<size_t>(l)]));
          if (it == table.end()) continue;
          for (int64_t r : it->second) {
            if (KeysEqual(lp, l, lk, rp, r, rk)) {
              pairs.emplace_back(lrows[static_cast<size_t>(l)],
                                 rrows[static_cast<size_t>(r)]);
            }
          }
        }
        pair_charge.Add(static_cast<int64_t>(pairs.size() - before) * kBytesPerPair);
        return Status::OK();
      });
  NEXUS_RETURN_NOT_OK(st);
  std::sort(pairs.begin(), pairs.end());
  li->reserve(pairs.size());
  ri->reserve(pairs.size());
  for (const auto& [l, r] : pairs) {
    li->push_back(l);
    ri->push_back(r);
  }
  span->AddCounter("spill_partitions", spiller.stats().partitions);
  span->AddCounter("spill_bytes", spiller.stats().bytes_spilled);
  return Status::OK();
}

}  // namespace

Result<std::vector<uint64_t>> HashRows(const Table& input,
                                       const std::vector<int>& key_cols) {
  const int64_t n = input.num_rows();
  std::vector<uint64_t> hashes(static_cast<size_t>(n), 0x9E3779B97F4A7C15ULL);
  // Each morsel owns a disjoint slot range of `hashes`, so the combine below
  // is race-free and the result is independent of the thread count.
  for (int c : key_cols) {
    const Column& col = input.column(c);
    switch (col.type()) {
      case DataType::kInt64: {
        const auto& v = col.ints();
        ParallelFor(n, kMorselRows, [&](int64_t b, int64_t e) {
          for (int64_t r = b; r < e; ++r) {
            uint64_t h =
                col.IsNull(r)
                    ? kNullHash
                    : HashInt64(static_cast<uint64_t>(v[static_cast<size_t>(r)]));
            hashes[static_cast<size_t>(r)] =
                HashCombine(hashes[static_cast<size_t>(r)], h);
          }
        });
        break;
      }
      case DataType::kFloat64: {
        ParallelFor(n, kMorselRows, [&](int64_t b, int64_t e) {
          for (int64_t r = b; r < e; ++r) {
            hashes[static_cast<size_t>(r)] = HashCombine(
                hashes[static_cast<size_t>(r)],
                col.IsNull(r) ? kNullHash : col.GetValue(r).Hash());
          }
        });
        break;
      }
      case DataType::kBool: {
        const auto& v = col.bools();
        ParallelFor(n, kMorselRows, [&](int64_t b, int64_t e) {
          for (int64_t r = b; r < e; ++r) {
            uint64_t h = col.IsNull(r)
                             ? kNullHash
                             : (v[static_cast<size_t>(r)] ? 0x74727565ULL
                                                          : 0x66616C73ULL);
            hashes[static_cast<size_t>(r)] =
                HashCombine(hashes[static_cast<size_t>(r)], h);
          }
        });
        break;
      }
      case DataType::kString: {
        const auto& v = col.strings();
        ParallelFor(n, kMorselRows, [&](int64_t b, int64_t e) {
          for (int64_t r = b; r < e; ++r) {
            uint64_t h = col.IsNull(r)
                             ? kNullHash
                             : HashString(v[static_cast<size_t>(r)]);
            hashes[static_cast<size_t>(r)] =
                HashCombine(hashes[static_cast<size_t>(r)], h);
          }
        });
        break;
      }
    }
  }
  return hashes;
}

Result<bool> HashJoinPairs(const TablePtr& left, const TablePtr& right,
                           const std::vector<int>& lk,
                           const std::vector<int>& rk,
                           ScopedCharge* working_set,
                           telemetry::SpanGuard* span,
                           std::vector<int64_t>* li, std::vector<int64_t>* ri) {
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> lh, HashRows(*left, lk));
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> rh, HashRows(*right, rk));
  const int64_t nl = left->num_rows();
  const int64_t nr = right->num_rows();
  // Out-of-core path: when the estimated working set crosses the query's
  // budget (or the governor asked this query to shed memory), compute the
  // candidate pairs via Grace partitioning instead of one big build.
  if (nr > 0 && spill::ShouldSpill(left->ByteSize() + right->ByteSize() +
                                   nr * kBuildBytesPerRow)) {
    NEXUS_RETURN_NOT_OK(
        SpillJoinPairs(left, right, lh, rh, lk, rk, li, ri, span));
    return true;
  }
  // Partitioned build: partition p owns every hash h with (h & mask) == p
  // and builds its chained-bucket table independently. A bucket lives in
  // exactly one partition and receives its rows in ascending row order, so
  // bucket chains are identical to the old single-threaded build.
  int parts = 1;
  while (parts < GetThreadCount() && parts < 64) parts *= 2;
  const uint64_t mask = static_cast<uint64_t>(parts - 1);
  working_set->Add(nr * kBuildBytesPerRow);
  std::vector<std::unordered_map<uint64_t, std::vector<int64_t>>> tables(
      static_cast<size_t>(parts));
  ParallelFor(parts, 1, [&](int64_t pb, int64_t pe) {
    for (int64_t p = pb; p < pe; ++p) {
      auto& table = tables[static_cast<size_t>(p)];
      table.reserve(static_cast<size_t>(nr / parts + 1));
      for (int64_t r = 0; r < nr; ++r) {
        uint64_t h = rh[static_cast<size_t>(r)];
        if ((h & mask) != static_cast<uint64_t>(p)) continue;
        if (RowHasNullKey(*right, r, rk)) continue;
        table[h].push_back(r);
      }
    }
  });

  // Probe: each morsel of left rows collects matches into its own pair
  // vectors; concatenating them in morsel order reproduces the sequential
  // (left-ascending, bucket-chain) pair order exactly.
  const int64_t grain = kMorselRows;
  const size_t morsels = static_cast<size_t>((nl + grain - 1) / grain);
  std::vector<std::vector<int64_t>> lparts(morsels), rparts(morsels);
  ParallelFor(nl, grain, [&](int64_t b, int64_t e) {
    std::vector<int64_t>& lo = lparts[static_cast<size_t>(b / grain)];
    std::vector<int64_t>& ro = rparts[static_cast<size_t>(b / grain)];
    for (int64_t l = b; l < e; ++l) {
      if (RowHasNullKey(*left, l, lk)) continue;
      uint64_t h = lh[static_cast<size_t>(l)];
      const auto& table = tables[static_cast<size_t>(h & mask)];
      auto it = table.find(h);
      if (it == table.end()) continue;
      for (int64_t r : it->second) {
        if (KeysEqual(*left, l, lk, *right, r, rk)) {
          lo.push_back(l);
          ro.push_back(r);
        }
      }
    }
  });
  size_t total = 0;
  for (const auto& p : lparts) total += p.size();
  working_set->Add(static_cast<int64_t>(total) * kBytesPerPair);
  li->reserve(total);
  ri->reserve(total);
  for (size_t m = 0; m < morsels; ++m) {
    li->insert(li->end(), lparts[m].begin(), lparts[m].end());
    ri->insert(ri->end(), rparts[m].begin(), rparts[m].end());
  }
  return false;
}

Result<TablePtr> Filter(const TablePtr& input, const Expr& predicate) {
  // Kernel names stay short (SSO) so a disabled-tracing span costs only the
  // one atomic load inside SpanGuard — no allocation.
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.Filter");
  NEXUS_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                         EvalPredicate(predicate, *input));
  span.AddCounter("rows_in", input->num_rows());
  span.AddCounter("rows", static_cast<int64_t>(sel.size()));
  return input->TakeRows(sel);
}

Result<TablePtr> Project(const TablePtr& input,
                         const std::vector<std::string>& columns) {
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (const std::string& name : columns) {
    NEXUS_ASSIGN_OR_RETURN(int i, input->schema()->FindFieldOrError(name));
    fields.push_back(input->schema()->field(i));
    cols.push_back(input->column(i));
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  return Table::Make(schema, std::move(cols));
}

Result<TablePtr> Extend(
    const TablePtr& input,
    const std::vector<std::pair<std::string, ExprPtr>>& defs) {
  std::vector<Field> fields = input->schema()->fields();
  std::vector<Column> cols = input->columns();
  TablePtr working = input;
  for (const auto& [name, expr] : defs) {
    NEXUS_ASSIGN_OR_RETURN(Column c, EvalExprVector(*expr, *working));
    fields.push_back(Field::Attr(name, c.type()));
    cols.push_back(std::move(c));
    NEXUS_ASSIGN_OR_RETURN(SchemaPtr s, Schema::Make(fields));
    NEXUS_ASSIGN_OR_RETURN(working, Table::Make(s, cols));
  }
  return working;
}

Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const JoinOp& spec) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.HashJoin");
  span.AddCounter("rows_left", left->num_rows());
  span.AddCounter("rows_right", right->num_rows());
  std::vector<int> lk, rk;
  for (const std::string& k : spec.left_keys) {
    NEXUS_ASSIGN_OR_RETURN(int i, left->schema()->FindFieldOrError(k));
    lk.push_back(i);
  }
  for (const std::string& k : spec.right_keys) {
    NEXUS_ASSIGN_OR_RETURN(int i, right->schema()->FindFieldOrError(k));
    rk.push_back(i);
  }
  const int64_t nl = left->num_rows();
  const int64_t nr = right->num_rows();

  std::vector<int64_t> li, ri;
  ScopedCharge working_set;  // released when the join returns
  if (lk.empty()) {
    // Keys-free join (residual-only): cross product. Pair (l, r) owns slot
    // l*nr + r: exact-size allocation up front, and each left-row morsel
    // fills disjoint slots.
    li.resize(static_cast<size_t>(nl * nr));
    ri.resize(static_cast<size_t>(nl * nr));
    int64_t rows_per_morsel =
        std::max<int64_t>(1, kMorselRows / std::max<int64_t>(1, nr));
    ParallelFor(nl, rows_per_morsel, [&](int64_t b, int64_t e) {
      for (int64_t l = b; l < e; ++l) {
        size_t base = static_cast<size_t>(l * nr);
        for (int64_t r = 0; r < nr; ++r) {
          li[base + static_cast<size_t>(r)] = l;
          ri[base + static_cast<size_t>(r)] = r;
        }
      }
    });
  } else {
    NEXUS_RETURN_NOT_OK(
        HashJoinPairs(left, right, lk, rk, &working_set, &span, &li, &ri)
            .status());
  }

  // Residual filtering over the candidate pairs (vectorized).
  if (spec.residual != nullptr && !li.empty()) {
    std::vector<Field> combined_fields = left->schema()->fields();
    std::vector<Column> combined_cols;
    for (const Column& c : left->columns()) combined_cols.push_back(c.Take(li));
    for (int c = 0; c < right->num_columns(); ++c) {
      const Field& f = right->schema()->field(c);
      if (left->schema()->FindField(f.name) >= 0) continue;
      combined_fields.push_back(f);
      combined_cols.push_back(right->column(c).Take(ri));
    }
    NEXUS_ASSIGN_OR_RETURN(SchemaPtr cs, Schema::Make(std::move(combined_fields)));
    NEXUS_ASSIGN_OR_RETURN(TablePtr candidates,
                           Table::Make(cs, std::move(combined_cols)));
    NEXUS_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                           EvalPredicate(*spec.residual, *candidates));
    std::vector<int64_t> li2, ri2;
    li2.reserve(keep.size());
    ri2.reserve(keep.size());
    for (int64_t k : keep) {
      li2.push_back(li[static_cast<size_t>(k)]);
      ri2.push_back(ri[static_cast<size_t>(k)]);
    }
    li.swap(li2);
    ri.swap(ri2);
  }

  if (spec.type == JoinType::kSemi || spec.type == JoinType::kAnti) {
    std::vector<uint8_t> matched(static_cast<size_t>(nl), 0);
    for (int64_t l : li) matched[static_cast<size_t>(l)] = 1;
    std::vector<int64_t> keep;
    keep.reserve(static_cast<size_t>(nl));
    bool want = spec.type == JoinType::kSemi;
    for (int64_t l = 0; l < nl; ++l) {
      if ((matched[static_cast<size_t>(l)] != 0) == want) keep.push_back(l);
    }
    return left->TakeRows(keep);
  }

  // Output schema: left fields + right non-key fields (dimension tags drop).
  std::vector<Field> fields = left->schema()->fields();
  std::vector<int> right_out;
  for (int c = 0; c < right->num_columns(); ++c) {
    const std::string& n = right->schema()->field(c).name;
    if (std::find(spec.right_keys.begin(), spec.right_keys.end(), n) !=
        spec.right_keys.end()) {
      continue;
    }
    Field f = right->schema()->field(c);
    f.is_dimension = false;
    fields.push_back(f);
    right_out.push_back(c);
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));

  // Gather output columns in parallel: every task writes one pre-assigned
  // slot of out_cols, so completion order cannot reorder the result.
  const size_t ncols =
      static_cast<size_t>(left->num_columns()) + right_out.size();
  std::vector<Column> out_cols;
  out_cols.reserve(ncols);
  for (const Column& c : left->columns()) out_cols.emplace_back(c.type());
  for (int c : right_out) out_cols.emplace_back(right->column(c).type());
  std::vector<std::function<void()>> gathers;
  gathers.reserve(ncols);
  for (int c = 0; c < left->num_columns(); ++c) {
    gathers.push_back(
        [&, c] { out_cols[static_cast<size_t>(c)] = left->column(c).Take(li); });
  }
  for (size_t j = 0; j < right_out.size(); ++j) {
    gathers.push_back([&, j] {
      out_cols[static_cast<size_t>(left->num_columns()) + j] =
          right->column(right_out[j]).Take(ri);
    });
  }
  ParallelRun(gathers);

  if (spec.type == JoinType::kLeft) {
    std::vector<uint8_t> matched(static_cast<size_t>(nl), 0);
    for (int64_t l : li) matched[static_cast<size_t>(l)] = 1;
    std::vector<int64_t> unmatched;
    unmatched.reserve(static_cast<size_t>(nl));
    for (int64_t l = 0; l < nl; ++l) {
      if (!matched[static_cast<size_t>(l)]) unmatched.push_back(l);
    }
    if (!unmatched.empty()) {
      for (int c = 0; c < left->num_columns(); ++c) {
        NEXUS_RETURN_NOT_OK(
            out_cols[static_cast<size_t>(c)].AppendColumn(left->column(c).Take(unmatched)));
      }
      for (size_t c = 0; c < right_out.size(); ++c) {
        Column& col = out_cols[static_cast<size_t>(left->num_columns()) + c];
        col.Reserve(col.size() + static_cast<int64_t>(unmatched.size()));
        for (size_t i = 0; i < unmatched.size(); ++i) col.AppendNull();
      }
    }
  }
  return Table::Make(schema, std::move(out_cols));
}

Result<TablePtr> Sort(const TablePtr& input, const std::vector<SortKey>& keys) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.Sort");
  span.AddCounter("rows_in", input->num_rows());
  std::vector<int> key_cols;
  for (const SortKey& k : keys) {
    NEXUS_ASSIGN_OR_RETURN(int i, input->schema()->FindFieldOrError(k.column));
    key_cols.push_back(i);
  }
  std::vector<int64_t> order(static_cast<size_t>(input->num_rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  // Typed comparators per key (nulls first, matching Value::Compare).
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const Column& c = input->column(key_cols[k]);
      bool na = c.IsNull(a), nb = c.IsNull(b);
      int cmp = 0;
      if (na || nb) {
        cmp = (na == nb) ? 0 : (na ? -1 : 1);
      } else {
        switch (c.type()) {
          case DataType::kInt64: {
            int64_t va = c.ints()[static_cast<size_t>(a)];
            int64_t vb = c.ints()[static_cast<size_t>(b)];
            cmp = va < vb ? -1 : (va > vb ? 1 : 0);
            break;
          }
          case DataType::kFloat64: {
            double va = c.doubles()[static_cast<size_t>(a)];
            double vb = c.doubles()[static_cast<size_t>(b)];
            cmp = va < vb ? -1 : (va > vb ? 1 : 0);
            break;
          }
          case DataType::kBool:
            cmp = static_cast<int>(c.bools()[static_cast<size_t>(a)]) -
                  static_cast<int>(c.bools()[static_cast<size_t>(b)]);
            break;
          case DataType::kString:
            cmp = c.strings()[static_cast<size_t>(a)].compare(
                c.strings()[static_cast<size_t>(b)]);
            cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
            break;
        }
      }
      if (cmp != 0) return keys[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  return input->TakeRows(order);
}

Result<TablePtr> Limit(const TablePtr& input, int64_t limit, int64_t offset) {
  return input->Slice(offset, limit);
}

Result<TablePtr> Distinct(const TablePtr& input) {
  std::vector<int> all;
  for (int i = 0; i < input->num_columns(); ++i) all.push_back(i);
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> hashes, HashRows(*input, all));
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets;
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < input->num_rows(); ++r) {
    std::vector<int64_t>& bucket = buckets[hashes[static_cast<size_t>(r)]];
    bool dup = false;
    for (int64_t prev : bucket) {
      if (GroupKeysEqual(*input, prev, r, all)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(r);
      keep.push_back(r);
    }
  }
  return input->TakeRows(keep);
}

Result<TablePtr> Union(const TablePtr& left, const TablePtr& right) {
  if (!left->schema()->Equals(*right->schema())) {
    return Status::TypeError("union schema mismatch");
  }
  std::vector<Column> cols = left->columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    NEXUS_RETURN_NOT_OK(cols[c].AppendColumn(right->column(static_cast<int>(c))));
  }
  return Table::Make(left->schema(), std::move(cols));
}

Result<TablePtr> Rename(
    const TablePtr& input,
    const std::vector<std::pair<std::string, std::string>>& mapping) {
  std::vector<Field> fields = input->schema()->fields();
  for (const auto& [from, to] : mapping) {
    NEXUS_ASSIGN_OR_RETURN(int i, input->schema()->FindFieldOrError(from));
    fields[static_cast<size_t>(i)].name = to;
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  return Table::Make(schema, input->columns());
}

}  // namespace relational
}  // namespace nexus
