#include "relational/engine.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "exec/spill/spill.h"
#include "expr/eval.h"
#include "relational/hash_index.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace relational {

namespace {

// The join's one key compare: row `ar` of `a` against row `br` of `b` on
// the paired key columns. The type dispatch is resolved once per probe: a
// single int64 key on both sides compares the values directly (the E11
// join at one thread takes about 35% less time for it), anything else
// takes the per-key typed switch, boxing only mixed numeric types. Null keys never match, and the
// int64 case never sees one: the build and the probe both skip them.
class KeysEqual {
 public:
  KeysEqual(const Table& a, const std::vector<int>& ac, const Table& b,
            const std::vector<int>& bc)
      : a_(a), ac_(ac), b_(b), bc_(bc) {
    if (ac.size() == 1 && a.column(ac[0]).type() == DataType::kInt64 &&
        b.column(bc[0]).type() == DataType::kInt64) {
      av_ = a.column(ac[0]).ints().data();
      bv_ = b.column(bc[0]).ints().data();
    }
  }

  bool operator()(int64_t ar, int64_t br) const {
    if (av_ != nullptr) return av_[ar] == bv_[br];
    const size_t ai = static_cast<size_t>(ar), bi = static_cast<size_t>(br);
    for (size_t k = 0; k < ac_.size(); ++k) {
      const Column& ca = a_.column(ac_[k]);
      const Column& cb = b_.column(bc_[k]);
      if (ca.IsNull(ar) || cb.IsNull(br)) return false;
      if (ca.type() != cb.type()) {
        if (ca.GetValue(ar) != cb.GetValue(br)) return false;
        continue;
      }
      switch (ca.type()) {
        case DataType::kInt64:
          if (ca.ints()[ai] != cb.ints()[bi]) return false;
          break;
        case DataType::kFloat64:
          if (ca.doubles()[ai] != cb.doubles()[bi]) return false;
          break;
        case DataType::kBool:
          if (ca.bools()[ai] != cb.bools()[bi]) return false;
          break;
        case DataType::kString:
          if (ca.strings()[ai] != cb.strings()[bi]) return false;
          break;
      }
    }
    return true;
  }

 private:
  const Table& a_;
  const std::vector<int>& ac_;
  const Table& b_;
  const std::vector<int>& bc_;
  const int64_t* av_ = nullptr;
  const int64_t* bv_ = nullptr;
};

constexpr uint64_t kNullHash = 0x6E756C6CULL;

bool RowHasNullKey(const Table& t, int64_t r, const std::vector<int>& cols) {
  for (int c : cols) {
    if (t.column(c).IsNull(r)) return true;
  }
  return false;
}

// Per-candidate cost of the (l, r) pair vectors — with the build index, the
// operator working set the type layer cannot meter on its own.
constexpr int64_t kBytesPerPair = 2 * static_cast<int64_t>(sizeof(int64_t));

// Candidate pairs of one probe morsel, filled in storage the morsel owns.
struct PairPiece {
  std::vector<int64_t> l, r;
};

// Probes rows [b, e) of `left` against `index` (built over `right`'s keys):
// left rows ascending, each one's matches in ascending right-row order.
// `lrow`/`rrow` map partition-local rows to the rows a pair reports.
template <typename LRow, typename RRow>
PairPiece ProbeRange(const Table& left, const std::vector<int>& lk,
                     const uint64_t* lh, const Table& right,
                     const std::vector<int>& rk, const HashIndex& index,
                     int64_t b, int64_t e, LRow lrow, RRow rrow) {
  PairPiece out;
  out.l.reserve(static_cast<size_t>(e - b));
  out.r.reserve(static_cast<size_t>(e - b));
  const KeysEqual equal(left, lk, right, rk);
  for (int64_t l = b; l < e; ++l) {
    if (RowHasNullKey(left, l, lk)) continue;
    index.ForEach(lh[l], [&](int64_t r) {
      if (equal(l, r)) {
        out.l.push_back(lrow(l));
        out.r.push_back(rrow(r));
      }
    });
  }
  return out;
}

// Gathers `rows` of every column of `input`, one column per task (inline
// below one morsel of rows, where waking the pool costs more than it saves).
TablePtr GatherRows(const TablePtr& input, const std::vector<int64_t>& rows) {
  if (input->num_columns() == 0) return input->TakeRows(rows);
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(input->num_columns()));
  for (int c = 0; c < input->num_columns(); ++c) {
    cols.emplace_back(input->column(c).type());
  }
  std::vector<std::function<void()>> gathers;
  gathers.reserve(cols.size());
  for (int c = 0; c < input->num_columns(); ++c) {
    gathers.push_back([&, c] {
      cols[static_cast<size_t>(c)] = input->column(c).Take(rows);
    });
  }
  ParallelRun(gathers, static_cast<int64_t>(rows.size()) < kMorselRows ? 1 : 0);
  return Table::Make(input->schema(), std::move(cols)).ValueOrDie();
}

// Out-of-core candidate-pair computation: Grace-partition both sides by
// their key hashes, build/probe each partition pair in memory, and emit
// pairs of ORIGINAL row indices. Identity argument: the in-memory probe
// emits pairs in lexicographic (l, r) order — left rows ascending, and each
// left row's matches are the entries of its hash in ascending right-row
// order — and equal keys share a full hash, so all of a hash's rows land in
// exactly one partition. Sorting the merged per-partition pairs by (l, r)
// therefore reproduces the in-memory pair order exactly.
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
        // The hash columns hold the row hashes' bits as int64.
        const auto* lbits = reinterpret_cast<const uint64_t*>(lhash.data());
        const auto* rbits = reinterpret_cast<const uint64_t*>(rhash.data());
        ScopedCharge build_charge;
        build_charge.Add(HashIndex::BytesFor(rp.num_rows()));
        HashIndex index = HashIndex::Build(
            rbits, rp.num_rows(), 1,
            [&](int64_t r) { return !RowHasNullKey(rp, r, rk); });
        PairPiece piece = ProbeRange(
            lp, lk, lbits, rp, rk, index, 0, lp.num_rows(),
            [&](int64_t l) { return lrows[static_cast<size_t>(l)]; },
            [&](int64_t r) { return rrows[static_cast<size_t>(r)]; });
        pair_charge.Add(static_cast<int64_t>(piece.l.size()) * kBytesPerPair);
        for (size_t i = 0; i < piece.l.size(); ++i) {
          pairs.emplace_back(piece.l[i], piece.r[i]);
        }
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
  // Out-of-core path: when the working set (both inputs plus the build
  // index) crosses the query's budget, or the governor asked this query to
  // shed memory, compute the candidate pairs via Grace partitioning instead
  // of one big build.
  const int64_t index_bytes = HashIndex::BytesFor(nr);
  if (nr > 0 && spill::ShouldSpill(left->ByteSize() + right->ByteSize() +
                                   index_bytes)) {
    NEXUS_RETURN_NOT_OK(
        SpillJoinPairs(left, right, lh, rh, lk, rk, li, ri, span));
    return true;
  }
  // Build: a flat index over the right rows with non-null keys, each
  // bucket's entries contiguous and in ascending row order.
  working_set->Add(index_bytes);
  const HashIndex index = HashIndex::Build(
      rh.data(), nr, GetThreadCount(),
      [&](int64_t r) { return !RowHasNullKey(*right, r, rk); });

  // Probe: each morsel of left rows fills its own pair vectors; their
  // concatenation in morsel order is the sequential pair order.
  auto same = [](int64_t row) { return row; };
  NEXUS_ASSIGN_OR_RETURN(
      std::vector<PairPiece> pieces,
      ParallelMorsels<PairPiece>(nl, [&](int64_t b, int64_t e) {
        return ProbeRange(*left, lk, lh.data(), *right, rk, index, b, e, same,
                          same);
      }));
  size_t total = 0;
  for (const PairPiece& p : pieces) total += p.l.size();
  working_set->Add(static_cast<int64_t>(total) * kBytesPerPair);
  auto concat = [&pieces, total](std::vector<int64_t>* out,
                                 std::vector<int64_t> PairPiece::*side) {
    out->reserve(out->size() + total);
    for (const PairPiece& p : pieces) {
      out->insert(out->end(), (p.*side).begin(), (p.*side).end());
    }
  };
  ParallelRun({[&] { concat(li, &PairPiece::l); },
               [&] { concat(ri, &PairPiece::r); }},
              static_cast<int64_t>(total) < kMorselRows ? 1 : 0);
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
  return GatherRows(input, sel);
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

Status JoinPairs(const TablePtr& left, const TablePtr& right,
                 const JoinOp& spec, ScopedCharge* working_set,
                 telemetry::SpanGuard* span, std::vector<int64_t>* li,
                 std::vector<int64_t>* ri) {
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
  if (lk.empty()) {
    // Keys-free join (residual-only): cross product. Pair (l, r) owns slot
    // l*nr + r: exact-size allocation up front, and each left-row morsel
    // fills disjoint slots.
    li->resize(static_cast<size_t>(nl * nr));
    ri->resize(static_cast<size_t>(nl * nr));
    int64_t rows_per_morsel =
        std::max<int64_t>(1, kMorselRows / std::max<int64_t>(1, nr));
    ParallelFor(nl, rows_per_morsel, [&](int64_t b, int64_t e) {
      for (int64_t l = b; l < e; ++l) {
        size_t base = static_cast<size_t>(l * nr);
        for (int64_t r = 0; r < nr; ++r) {
          (*li)[base + static_cast<size_t>(r)] = l;
          (*ri)[base + static_cast<size_t>(r)] = r;
        }
      }
    });
  } else {
    NEXUS_RETURN_NOT_OK(
        HashJoinPairs(left, right, lk, rk, working_set, span, li, ri).status());
  }
  if (spec.residual == nullptr || li->empty()) return Status::OK();

  // Residual filtering over the candidate pairs (vectorized).
  std::vector<Field> combined_fields = left->schema()->fields();
  std::vector<Column> combined_cols;
  for (const Column& c : left->columns()) combined_cols.push_back(c.Take(*li));
  for (int c = 0; c < right->num_columns(); ++c) {
    const Field& f = right->schema()->field(c);
    if (left->schema()->FindField(f.name) >= 0) continue;
    combined_fields.push_back(f);
    combined_cols.push_back(right->column(c).Take(*ri));
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
    li2.push_back((*li)[static_cast<size_t>(k)]);
    ri2.push_back((*ri)[static_cast<size_t>(k)]);
  }
  li->swap(li2);
  ri->swap(ri2);
  return Status::OK();
}

Result<TablePtr> GatherJoin(const TablePtr& left, const TablePtr& right,
                            const JoinOp& spec, const std::vector<int64_t>& li,
                            const std::vector<int64_t>& ri) {
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

  // Gather output columns in parallel (inline below one morsel of pairs):
  // every task writes one pre-assigned slot of out_cols, so completion
  // order cannot reorder the result.
  const int nleft = left->num_columns();
  std::vector<Column> out_cols;
  out_cols.reserve(static_cast<size_t>(nleft) + right_out.size());
  for (const Column& c : left->columns()) out_cols.emplace_back(c.type());
  for (int c : right_out) out_cols.emplace_back(right->column(c).type());
  std::vector<std::function<void()>> gathers;
  gathers.reserve(out_cols.size());
  for (int c = 0; c < nleft; ++c) {
    gathers.push_back(
        [&, c] { out_cols[static_cast<size_t>(c)] = left->column(c).Take(li); });
  }
  for (size_t j = 0; j < right_out.size(); ++j) {
    gathers.push_back([&, j] {
      Column& col = out_cols[static_cast<size_t>(nleft) + j];
      col = right->column(right_out[j]).Take(ri);
      for (size_t i = ri.size(); i < li.size(); ++i) col.AppendNull();
    });
  }
  ParallelRun(gathers, static_cast<int64_t>(li.size()) < kMorselRows ? 1 : 0);
  return Table::Make(schema, std::move(out_cols));
}

Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const JoinOp& spec) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.HashJoin");
  span.AddCounter("rows_left", left->num_rows());
  span.AddCounter("rows_right", right->num_rows());
  ScopedCharge working_set;  // released when the join returns
  std::vector<int64_t> li, ri;
  NEXUS_RETURN_NOT_OK(
      JoinPairs(left, right, spec, &working_set, &span, &li, &ri));
  if (spec.type == JoinType::kInner) {
    return GatherJoin(left, right, spec, li, ri);
  }
  const int64_t nl = left->num_rows();
  std::vector<uint8_t> matched(static_cast<size_t>(nl), 0);
  for (int64_t l : li) matched[static_cast<size_t>(l)] = 1;
  if (spec.type == JoinType::kSemi || spec.type == JoinType::kAnti) {
    std::vector<int64_t> keep;
    keep.reserve(static_cast<size_t>(nl));
    bool want = spec.type == JoinType::kSemi;
    for (int64_t l = 0; l < nl; ++l) {
      if ((matched[static_cast<size_t>(l)] != 0) == want) keep.push_back(l);
    }
    return GatherRows(left, keep);
  }
  // Left join: the unmatched left rows follow the pairs, null on the right.
  for (int64_t l = 0; l < nl; ++l) {
    if (!matched[static_cast<size_t>(l)]) li.push_back(l);
  }
  return GatherJoin(left, right, spec, li, ri);
}

Result<TablePtr> Sort(const TablePtr& input, const std::vector<SortKey>& keys,
                      int64_t max_rows) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.Sort");
  span.AddCounter("rows_in", input->num_rows());
  std::vector<int> key_cols;
  for (const SortKey& k : keys) {
    NEXUS_ASSIGN_OR_RETURN(int i, input->schema()->FindFieldOrError(k.column));
    key_cols.push_back(i);
  }
  const int64_t n = input->num_rows();
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  // Typed three-way compare over the keys: negative when row a sorts before
  // row b. Nulls come first (as in Value::Compare); float64 keys take a
  // total order in which NaN follows every number and ties with NaN.
  auto compare = [&](int64_t a, int64_t b) {
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
            bool an = std::isnan(va), bn = std::isnan(vb);
            cmp = an || bn ? static_cast<int>(an) - static_cast<int>(bn)
                           : (va < vb ? -1 : (va > vb ? 1 : 0));
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
      if (cmp != 0) return keys[k].ascending ? cmp : -cmp;
    }
    return 0;
  };
  const int64_t keep = std::clamp<int64_t>(max_rows, 0, n);
  if (keep < n) {
    // Top-k: (keys..., row index) is a strict total order, and its first
    // `keep` rows are the stable sort's first `keep` rows.
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](int64_t a, int64_t b) {
                        int cmp = compare(a, b);
                        return cmp != 0 ? cmp < 0 : a < b;
                      });
  } else {
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return compare(a, b) < 0;
    });
  }
  order.resize(static_cast<size_t>(keep));
  return GatherRows(input, order);
}

Result<TablePtr> Limit(const TablePtr& input, int64_t limit, int64_t offset) {
  return input->Slice(offset, limit);
}

Result<TablePtr> Distinct(const TablePtr& input) {
  std::vector<int> all;
  for (int i = 0; i < input->num_columns(); ++i) all.push_back(i);
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> hashes, HashRows(*input, all));
  // Group g's representative is keep[g], its first occurrence.
  GroupIndex index;
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < input->num_rows(); ++r) {
    bool inserted = false;
    index.FindOrInsert(
        hashes[static_cast<size_t>(r)],
        [&](int64_t g) {
          return GroupKeysEqual(*input, keep[static_cast<size_t>(g)], r, all);
        },
        &inserted);
    if (inserted) keep.push_back(r);
  }
  ScopedCharge working_set;  // the index, released when Distinct returns
  working_set.Add(index.ByteSize());
  return GatherRows(input, keep);
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
