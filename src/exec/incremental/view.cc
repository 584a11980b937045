#include "exec/incremental/view.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "algebra/kernels.h"
#include "common/memory.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "exec/spill/spill.h"
#include "expr/eval.h"
#include "optimizer/incremental.h"
#include "relational/engine.h"
#include "relational/hash_index.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace incremental {

namespace {

// ---------------------------------------------------------------------------
// Scratch-order keys.
//
// Each delta row carries its position in the full-recompute output of its
// operator as a lexicographic int64 vector. Widths are fixed per node
// (scan/const = 1, join = left + right, union = 1 + max(children), padded
// with kKeyPad), so keys of one node always compare component-wise and a
// sort by key reproduces the full-recompute row order exactly. A node's
// keys live in one flat array, `width` entries per row.
// ---------------------------------------------------------------------------

constexpr int64_t kKeyPad = std::numeric_limits<int64_t>::min();

bool KeyLess(const int64_t* a, const int64_t* b, int width) {
  return std::lexicographical_compare(a, a + width, b, b + width);
}

constexpr const char* kRefuseMarker = "ivm-refuse: ";

Status Refuse(const std::string& why) {
  return Status(StatusCode::kUnavailable, StrCat(kRefuseMarker, why));
}

bool IsRefusal(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().rfind(kRefuseMarker, 0) == 0;
}

std::string RefusalReason(const Status& s) {
  return s.message().substr(std::string(kRefuseMarker).size());
}

telemetry::Gauge* StateBytesGauge() {
  static telemetry::Gauge* g =
      telemetry::MetricsRegistry::Global().gauge("incremental.state_bytes");
  return g;
}

/// Rows of one node in key order, with their keys (`width` per row).
struct DeltaBatch {
  TablePtr rows;
  std::vector<int64_t> keys;
  int width = 1;
  int64_t num_rows() const { return rows == nullptr ? 0 : rows->num_rows(); }
  const int64_t* key(int64_t r) const { return keys.data() + r * width; }
};

/// Merges two key-ordered batches of one node: a concatenation when `b`
/// follows all of `a`, a two-way merge otherwise.
Result<DeltaBatch> MergeBatches(DeltaBatch a, DeltaBatch b) {
  if (b.num_rows() == 0) return a;
  if (a.num_rows() == 0) return b;
  NEXUS_ASSIGN_OR_RETURN(TablePtr both, relational::Union(a.rows, b.rows));
  const int w = a.width;
  const int64_t na = a.num_rows(), nb = b.num_rows();
  if (KeyLess(a.key(na - 1), b.key(0), w)) {
    a.keys.insert(a.keys.end(), b.keys.begin(), b.keys.end());
    return DeltaBatch{std::move(both), std::move(a.keys), w};
  }
  std::vector<int64_t> order, keys;
  order.reserve(static_cast<size_t>(na + nb));
  keys.reserve(a.keys.size() + b.keys.size());
  for (int64_t i = 0, j = 0; i < na || j < nb;) {
    const bool from_a = j >= nb || (i < na && KeyLess(a.key(i), b.key(j), w));
    const int64_t* k = from_a ? a.key(i) : b.key(j);
    keys.insert(keys.end(), k, k + w);
    order.push_back(from_a ? i++ : na + j++);
  }
  return DeltaBatch{both->TakeRows(order), std::move(keys), w};
}

// ---------------------------------------------------------------------------
// Runtime state tree.
// ---------------------------------------------------------------------------

/// Rows of one node retained in key order: a join side's build state, or a
/// non-aggregate root's output. The hot path, a batch that follows every
/// retained row, pushes the batch as a tail chunk and copies nothing; the
/// chunks collapse into `all.rows` only when the whole store is read. A
/// join side may be parked in a spill file between refreshes, its keys
/// riding along as hidden columns of the spill frame.
struct RowStore {
  DeltaBatch all;  // rows: the materialized prefix; keys: prefix + chunks
  std::vector<TablePtr> chunks;
  std::unique_ptr<spill::SpillFile> parked;
  SchemaPtr parked_schema;  // the rows' fields, then the key columns

  int64_t num_rows() const {
    return static_cast<int64_t>(all.keys.size()) / all.width;
  }

  int64_t bytes() const {
    int64_t b = all.rows == nullptr ? 0 : all.rows->ByteSize();
    for (const TablePtr& c : chunks) b += c->ByteSize();
    return b + static_cast<int64_t>(all.keys.size() * sizeof(int64_t));
  }

  Status Materialize() {
    if (chunks.empty()) return Status::OK();
    std::vector<Column> cols = all.rows->columns();
    for (const TablePtr& chunk : chunks) {
      for (size_t c = 0; c < cols.size(); ++c) {
        NEXUS_RETURN_NOT_OK(
            cols[c].AppendColumn(chunk->column(static_cast<int>(c))));
      }
    }
    NEXUS_ASSIGN_OR_RETURN(all.rows,
                           Table::Make(all.rows->schema(), std::move(cols)));
    chunks.clear();
    return Status::OK();
  }

  Status Merge(DeltaBatch batch) {
    if (all.rows != nullptr && batch.num_rows() == 0) return Status::OK();
    if (num_rows() == 0) {
      all = std::move(batch);
      return Status::OK();
    }
    if (KeyLess(all.keys.data() + all.keys.size() - all.width, batch.key(0),
                all.width)) {
      chunks.push_back(std::move(batch.rows));
      all.keys.insert(all.keys.end(), batch.keys.begin(), batch.keys.end());
      return Status::OK();
    }
    NEXUS_RETURN_NOT_OK(Materialize());
    NEXUS_ASSIGN_OR_RETURN(all, MergeBatches(std::move(all), std::move(batch)));
    return Status::OK();
  }

  Status Park() {
    if (parked != nullptr || num_rows() == 0) return Status::OK();
    NEXUS_RETURN_NOT_OK(Materialize());
    std::vector<Field> fields = all.rows->schema()->fields();
    std::vector<Column> cols = all.rows->columns();
    const size_t w = static_cast<size_t>(all.width);
    for (size_t k = 0; k < w; ++k) {
      std::vector<int64_t> comp(static_cast<size_t>(num_rows()));
      for (size_t r = 0; r < comp.size(); ++r) comp[r] = all.keys[r * w + k];
      fields.push_back(Field::Attr(StrCat("__nxkey", static_cast<int64_t>(k)),
                                   DataType::kInt64));
      cols.push_back(Column::FromInt64(std::move(comp)));
    }
    NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
    NEXUS_ASSIGN_OR_RETURN(TablePtr frame,
                           Table::Make(schema, std::move(cols)));
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<spill::SpillFile> file,
                           spill::SpillManager::Global().Create("ivm-state"));
    NEXUS_RETURN_NOT_OK(file->Append(frame));
    spill::ReleaseTable(all.rows);
    all.rows.reset();
    all.keys = {};
    parked = std::move(file);
    parked_schema = std::move(schema);
    return Status::OK();
  }

  Status Load() {
    if (parked == nullptr) return Status::OK();
    NEXUS_ASSIGN_OR_RETURN(TablePtr frame, parked->ReadAll(parked_schema));
    const size_t w = static_cast<size_t>(all.width);
    const int nreal = frame->num_columns() - all.width;
    all.keys.resize(static_cast<size_t>(frame->num_rows()) * w);
    for (size_t k = 0; k < w; ++k) {
      const auto& comp = frame->column(nreal + static_cast<int>(k)).ints();
      for (size_t r = 0; r < comp.size(); ++r) all.keys[r * w + k] = comp[r];
    }
    const auto& fields = parked_schema->fields();
    NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema,
                           Schema::Make(std::vector<Field>(
                               fields.begin(), fields.begin() + nreal)));
    NEXUS_ASSIGN_OR_RETURN(
        all.rows, Table::Make(std::move(schema),
                              std::vector<Column>(frame->columns().begin(),
                                                  frame->columns().begin() +
                                                      nreal)));
    parked.reset();  // unlinks the scratch file
    parked_schema.reset();
    return Status::OK();
  }
};

struct RtNode {
  DeltaKind kind = DeltaKind::kScan;
  const Plan* plan = nullptr;
  std::vector<std::unique_ptr<RtNode>> children;
  int key_width = 0;

  // kScan: consumed watermark against the catalog tail.
  bool scan_init = false;
  int64_t consumed_epoch = 0;
  int64_t consumed_rows = 0;
  uint64_t generation = 0;

  // kConst: the inline table is emitted once, at the initial build.
  bool const_emitted = false;

  // kJoin: each side's child output to date.
  RowStore left, right;
};

std::unique_ptr<RtNode> BuildRt(const DeltaNode& d) {
  auto node = std::make_unique<RtNode>();
  node->kind = d.kind;
  node->plan = d.plan;
  for (const auto& c : d.children) node->children.push_back(BuildRt(*c));
  switch (d.kind) {
    case DeltaKind::kScan:
    case DeltaKind::kConst:
      node->key_width = 1;
      break;
    case DeltaKind::kFilter:
    case DeltaKind::kProject:
    case DeltaKind::kExtend:
    case DeltaKind::kRename:
    case DeltaKind::kAggregate:
      node->key_width = node->children[0]->key_width;
      break;
    case DeltaKind::kJoin:
      node->left.all.width = node->children[0]->key_width;
      node->right.all.width = node->children[1]->key_width;
      node->key_width = node->left.all.width + node->right.all.width;
      break;
    case DeltaKind::kUnion:
      node->key_width =
          1 + std::max(node->children[0]->key_width,
                       node->children[1]->key_width);
      break;
  }
  return node;
}

int64_t NodeStateBytes(const RtNode& node) {
  int64_t bytes = node.left.bytes() + node.right.bytes();
  for (const auto& c : node.children) bytes += NodeStateBytes(*c);
  return bytes;
}

void CollectSides(RtNode* node, std::vector<RowStore*>* out) {
  if (node->kind == DeltaKind::kJoin) {
    out->push_back(&node->left);
    out->push_back(&node->right);
  }
  for (auto& c : node->children) CollectSides(c.get(), out);
}

// ---------------------------------------------------------------------------
// Delta pull: one refresh's walk of the runtime tree. Each call returns the
// node's delta rows in key order and advances retained state.
// ---------------------------------------------------------------------------

Result<DeltaBatch> Pull(RtNode* node, const InMemoryCatalog& catalog);

/// `rows` keyed by position: row r's key is first + r.
DeltaBatch Positional(TablePtr rows, int64_t first) {
  DeltaBatch batch{std::move(rows), {}, 1};
  batch.keys.resize(static_cast<size_t>(batch.num_rows()));
  std::iota(batch.keys.begin(), batch.keys.end(), first);
  return batch;
}

Result<DeltaBatch> PullScan(RtNode* node, const InMemoryCatalog& catalog) {
  const auto& op = node->plan->As<ScanOp>();
  NEXUS_ASSIGN_OR_RETURN(TableTail tail, catalog.Tail(op.table));
  if (node->scan_init && tail.generation != node->generation) {
    return Refuse(StrCat("table '", op.table,
                         "' was replaced under the view (generation bump)"));
  }
  TablePtr delta;
  if (!node->scan_init) {
    // Initial build: the whole table is the delta, Put-time rows included
    // (DeltaSince(0) would only cover rows appended *after* epoch 0).
    node->scan_init = true;
    node->generation = tail.generation;
    node->consumed_epoch = 0;
    node->consumed_rows = 0;
    NEXUS_ASSIGN_OR_RETURN(Dataset d, catalog.Get(op.table));
    if (!d.is_table()) {
      return Status::Unsupported("views cover table collections only");
    }
    delta = d.table();
  } else {
    NEXUS_ASSIGN_OR_RETURN(delta,
                           catalog.DeltaSince(op.table, node->consumed_epoch));
  }
  // An append can land between Tail and DeltaSince; trim to the snapshot so
  // the consumed watermark stays consistent (the rest arrives next refresh).
  int64_t take = tail.row_count - node->consumed_rows;
  if (delta->num_rows() > take) delta = delta->Slice(0, take);
  DeltaBatch batch = Positional(std::move(delta), node->consumed_rows);
  node->consumed_epoch = tail.epoch;
  node->consumed_rows += batch.num_rows();
  return batch;
}

Result<DeltaBatch> PullConst(RtNode* node) {
  const TablePtr& t = node->plan->As<ValuesOp>().data.table();
  if (node->const_emitted) return Positional(Table::Empty(t->schema()), 0);
  node->const_emitted = true;
  return Positional(t, 0);
}

/// One delta term of a join: the pairs the engine's join keeps (key lookup,
/// HashJoinPairs, residual), gathered from the rows of `l` and `r`; a
/// pair's key is its left key then its right key. Both inputs are in key
/// order and the pairs come out left-major, so the term is in key order.
Result<DeltaBatch> JoinTerm(const DeltaBatch& l, const DeltaBatch& r,
                            const JoinOp& spec) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.HashJoin");
  span.AddCounter("rows_left", l.num_rows());
  span.AddCounter("rows_right", r.num_rows());
  ScopedCharge working_set;
  std::vector<int64_t> li, ri;
  NEXUS_RETURN_NOT_OK(relational::JoinPairs(l.rows, r.rows, spec,
                                            &working_set, &span, &li, &ri));
  DeltaBatch out;
  out.width = l.width + r.width;
  NEXUS_ASSIGN_OR_RETURN(out.rows,
                         relational::GatherJoin(l.rows, r.rows, spec, li, ri));
  out.keys.reserve(li.size() * static_cast<size_t>(out.width));
  for (size_t p = 0; p < li.size(); ++p) {
    out.keys.insert(out.keys.end(), l.key(li[p]), l.key(li[p]) + l.width);
    out.keys.insert(out.keys.end(), r.key(ri[p]), r.key(ri[p]) + r.width);
  }
  return out;
}

Result<DeltaBatch> PullJoin(RtNode* node, const InMemoryCatalog& catalog) {
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch dl, Pull(node->children[0].get(), catalog));
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch dr, Pull(node->children[1].get(), catalog));
  const auto& spec = node->plan->As<JoinOp>();
  RowStore& left = node->left;
  RowStore& right = node->right;
  NEXUS_RETURN_NOT_OK(left.Load());
  NEXUS_RETURN_NOT_OK(right.Load());
  // No pairs yet: the output schema, for a refresh that finds none.
  DeltaBatch out;
  out.width = node->key_width;
  NEXUS_ASSIGN_OR_RETURN(
      out.rows, relational::GatherJoin(dl.rows, dr.rows, spec, {}, {}));
  // Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR — the two terms partition the new
  // pairs (term 1's right rows predate ΔR, term 2's are exactly ΔR).
  if (dl.num_rows() > 0 && right.num_rows() > 0) {
    NEXUS_RETURN_NOT_OK(right.Materialize());
    NEXUS_ASSIGN_OR_RETURN(out, JoinTerm(dl, right.all, spec));
  }
  NEXUS_RETURN_NOT_OK(left.Merge(std::move(dl)));
  if (dr.num_rows() > 0 && left.num_rows() > 0) {
    NEXUS_RETURN_NOT_OK(left.Materialize());
    NEXUS_ASSIGN_OR_RETURN(DeltaBatch term, JoinTerm(left.all, dr, spec));
    NEXUS_ASSIGN_OR_RETURN(out, MergeBatches(std::move(out), std::move(term)));
  }
  NEXUS_RETURN_NOT_OK(right.Merge(std::move(dr)));
  return out;
}

Result<DeltaBatch> PullUnion(RtNode* node, const InMemoryCatalog& catalog) {
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch l, Pull(node->children[0].get(), catalog));
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch r, Pull(node->children[1].get(), catalog));
  DeltaBatch batch;
  batch.width = node->key_width;
  batch.keys.reserve(static_cast<size_t>((l.num_rows() + r.num_rows()) *
                                         batch.width));
  // Key: [branch] ++ child key, padded to the union's width.
  auto tag = [&](int64_t branch, const DeltaBatch& d) {
    for (int64_t i = 0; i < d.num_rows(); ++i) {
      batch.keys.push_back(branch);
      batch.keys.insert(batch.keys.end(), d.key(i), d.key(i) + d.width);
      batch.keys.insert(batch.keys.end(),
                        static_cast<size_t>(batch.width - 1 - d.width),
                        kKeyPad);
    }
  };
  tag(0, l);
  tag(1, r);
  if (r.num_rows() == 0) {
    batch.rows = l.rows;
  } else if (l.num_rows() == 0) {
    batch.rows = r.rows;
  } else {
    NEXUS_ASSIGN_OR_RETURN(batch.rows, relational::Union(l.rows, r.rows));
  }
  return batch;
}

Result<DeltaBatch> Pull(RtNode* node, const InMemoryCatalog& catalog) {
  switch (node->kind) {
    case DeltaKind::kScan:
      return PullScan(node, catalog);
    case DeltaKind::kConst:
      return PullConst(node);
    case DeltaKind::kJoin:
      return PullJoin(node, catalog);
    case DeltaKind::kUnion:
      return PullUnion(node, catalog);
    case DeltaKind::kAggregate:
      return Status::Internal("aggregate must be pulled through its view root");
    default:
      break;
  }
  // Row-wise operators: each output row keeps its input row's key.
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch c, Pull(node->children[0].get(), catalog));
  const Plan& plan = *node->plan;
  switch (node->kind) {
    case DeltaKind::kFilter: {
      NEXUS_ASSIGN_OR_RETURN(
          std::vector<int64_t> sel,
          EvalPredicate(*plan.As<SelectOp>().predicate, *c.rows));
      std::vector<int64_t> keys;
      keys.reserve(sel.size() * static_cast<size_t>(c.width));
      for (int64_t s : sel) {
        keys.insert(keys.end(), c.key(s), c.key(s) + c.width);
      }
      c.rows = c.rows->TakeRows(sel);
      c.keys = std::move(keys);
      break;
    }
    case DeltaKind::kProject: {
      NEXUS_ASSIGN_OR_RETURN(
          c.rows, relational::Project(c.rows, plan.As<ProjectOp>().columns));
      break;
    }
    case DeltaKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(
          c.rows, relational::Extend(c.rows, plan.As<ExtendOp>().defs));
      break;
    }
    case DeltaKind::kRename: {
      NEXUS_ASSIGN_OR_RETURN(
          c.rows, relational::Rename(c.rows, plan.As<RenameOp>().mapping));
      break;
    }
    default:
      break;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Root Reduce⊕ state: the grouped fold of algebra::LowerAggregate (a
// relational::GroupIndex over the group keys, a flat MonoidState array of
// groups × folds, algebra::FoldRow / FinishAgg), carried across refreshes,
// plus the scratch-order bookkeeping (first_key for group output order,
// max_key for the order-sensitivity guard). Float SUM/MIN/MAX and AVG of
// any input type are order-sensitive — fp addition is non-associative and
// min/max keep the accumulator on NaN and ±0.0 ties — which is exactly why
// out-of-order delta rows refuse below.
// ---------------------------------------------------------------------------

struct AggState {
  bool init = false;
  std::vector<int> group_cols;
  std::vector<algebra::FoldSpec> folds;
  std::vector<DataType> agg_types;
  bool order_sensitive = false;
  int width = 1;  // of the child's keys
  SchemaPtr out_schema;
  relational::GroupIndex index;
  TablePtr reps;                   // row g: group g's group-by values
  std::vector<int64_t> first_key;  // per group; output order is ascending
  std::vector<int64_t> max_key;    // per group; the order-sensitive guard
  std::vector<algebra::MonoidState> states;  // group g, fold a: g * nf + a

  int64_t num_groups() const {
    return static_cast<int64_t>(first_key.size()) / width;
  }

  int64_t bytes() const {
    if (!init) return 0;
    return index.ByteSize() + reps->ByteSize() +
           static_cast<int64_t>((first_key.size() + max_key.size()) *
                                    sizeof(int64_t) +
                                states.size() * sizeof(algebra::MonoidState));
  }
};

Status InitAgg(AggState* agg, const AggregateOp& spec,
               const DeltaBatch& batch) {
  const SchemaPtr& child_schema = batch.rows->schema();
  agg->width = batch.width;
  std::vector<Field> fields;
  for (const std::string& g : spec.group_by) {
    NEXUS_ASSIGN_OR_RETURN(int i, child_schema->FindFieldOrError(g));
    agg->group_cols.push_back(i);
    fields.push_back(child_schema->field(i));
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr rep_schema, Schema::Make(fields));
  agg->reps = Table::Empty(std::move(rep_schema));
  for (const AggSpec& a : spec.aggs) {
    NEXUS_ASSIGN_OR_RETURN(algebra::FoldSpec f, algebra::AggFold(a));
    agg->folds.push_back(f);
    DataType in = DataType::kInt64;
    if (!f.count_star) {
      NEXUS_ASSIGN_OR_RETURN(in, InferExprType(*a.input, *child_schema));
    }
    agg->agg_types.push_back(in);
    if (a.func == AggFunc::kAvg ||
        (in == DataType::kFloat64 && a.func != AggFunc::kCount)) {
      agg->order_sensitive = true;
    }
    NEXUS_ASSIGN_OR_RETURN(DataType out, AggResultType(a.func, in));
    fields.push_back(Field::Attr(a.output_name, out));
  }
  NEXUS_ASSIGN_OR_RETURN(agg->out_schema, Schema::Make(std::move(fields)));
  agg->init = true;
  return Status::OK();
}

Status FoldAgg(AggState* agg, const AggregateOp& spec,
               const DeltaBatch& batch) {
  if (!agg->init) NEXUS_RETURN_NOT_OK(InitAgg(agg, spec, batch));
  const Table& input = *batch.rows;
  const int64_t n = input.num_rows();
  if (n == 0) return Status::OK();
  std::vector<Column> agg_inputs;
  for (const AggSpec& a : spec.aggs) {
    if (a.input != nullptr) {
      NEXUS_ASSIGN_OR_RETURN(Column c, EvalExprVector(*a.input, input));
      agg_inputs.push_back(std::move(c));
    } else {
      agg_inputs.emplace_back(DataType::kInt64);
    }
  }
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> hashes,
                         relational::HashRows(input, agg->group_cols));
  const int w = agg->width;
  const size_t nf = agg->folds.size();
  const int64_t old_groups = agg->num_groups();
  std::vector<int> rep_cols(agg->group_cols.size());
  std::iota(rep_cols.begin(), rep_cols.end(), 0);
  // Batch rows that become representatives: one per group this batch adds,
  // and one per older group whose first row now comes earlier (it is bit
  // exact for -0.0 / NaN payloads). A batch is in key order, so no group
  // added by this batch moves its first row.
  std::vector<int64_t> new_reps;
  std::vector<std::pair<int64_t, int64_t>> moved_reps;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t* key = batch.key(r);
    bool inserted = false;
    const int64_t g = agg->index.FindOrInsert(
        hashes[static_cast<size_t>(r)],
        [&](int64_t c) {
          return c < old_groups
                     ? relational::GroupKeysEqual(*agg->reps, c, rep_cols,
                                                  input, r, agg->group_cols)
                     : relational::GroupKeysEqual(
                           input, new_reps[static_cast<size_t>(c - old_groups)],
                           r, agg->group_cols);
        },
        &inserted);
    if (inserted) {
      new_reps.push_back(r);
      agg->first_key.insert(agg->first_key.end(), key, key + w);
      agg->max_key.insert(agg->max_key.end(), key, key + w);
      agg->states.resize(agg->states.size() + nf);
    } else {
      int64_t* first = agg->first_key.data() + g * w;
      int64_t* last = agg->max_key.data() + g * w;
      if (agg->order_sensitive && KeyLess(key, last, w)) {
        return Refuse(
            "order-sensitive ⊕-fold received an out-of-order delta row");
      }
      if (KeyLess(key, first, w)) {
        std::copy(key, key + w, first);
        moved_reps.emplace_back(g, r);
      }
      if (KeyLess(last, key, w)) std::copy(key, key + w, last);
    }
    algebra::MonoidState* gs =
        agg->states.data() + static_cast<size_t>(g) * nf;
    for (size_t a = 0; a < nf; ++a) {
      NEXUS_RETURN_NOT_OK(
          algebra::FoldRow(agg->folds[a], agg_inputs[a], r, &gs[a]));
    }
  }
  if (new_reps.empty() && moved_reps.empty()) return Status::OK();
  std::vector<Column> cols = agg->reps->columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    const Column& src = input.column(agg->group_cols[i]);
    cols[i].AppendRows(src, new_reps);
    for (const auto& [g, r] : moved_reps) cols[i].SetFrom(g, src, r);
  }
  NEXUS_ASSIGN_OR_RETURN(agg->reps,
                         Table::Make(agg->reps->schema(), std::move(cols)));
  return Status::OK();
}

Result<TablePtr> BuildAggOutput(const AggState& agg, const AggregateOp& spec) {
  const int w = agg.width;
  std::vector<int64_t> order(static_cast<size_t>(agg.num_groups()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return KeyLess(agg.first_key.data() + a * w, agg.first_key.data() + b * w,
                   w);
  });
  std::vector<Column> cols;
  for (const Column& rep : agg.reps->columns()) cols.push_back(rep.Take(order));
  // SQL semantics: a global aggregate over empty input yields one row.
  const algebra::MonoidState empty;
  const bool synth_empty = agg.group_cols.empty() && order.empty();
  const size_t nf = agg.folds.size();
  for (size_t a = 0; a < nf; ++a) {
    const int field = static_cast<int>(agg.group_cols.size() + a);
    Column col(agg.out_schema->field(field).type);
    col.Reserve(static_cast<int64_t>(order.size()) + (synth_empty ? 1 : 0));
    for (int64_t g : order) {
      NEXUS_RETURN_NOT_OK(col.Append(
          algebra::FinishAgg(agg.states[static_cast<size_t>(g) * nf + a],
                             spec.aggs[a].func, agg.agg_types[a])));
    }
    if (synth_empty) {
      NEXUS_RETURN_NOT_OK(col.Append(
          algebra::FinishAgg(empty, spec.aggs[a].func, agg.agg_types[a])));
    }
    cols.push_back(std::move(col));
  }
  return Table::Make(agg.out_schema, std::move(cols));
}

}  // namespace

// ---------------------------------------------------------------------------
// Full recompute — the reference path.
// ---------------------------------------------------------------------------

Result<TablePtr> ExecuteViewPlan(const Plan& plan,
                                 const InMemoryCatalog& catalog) {
  auto child = [&](int i) { return ExecuteViewPlan(*plan.child(i), catalog); };
  switch (plan.kind()) {
    case OpKind::kScan: {
      NEXUS_ASSIGN_OR_RETURN(Dataset d, catalog.Get(plan.As<ScanOp>().table));
      if (!d.is_table()) {
        return Status::Unsupported("views cover table collections only");
      }
      return d.table();
    }
    case OpKind::kValues: {
      const Dataset& d = plan.As<ValuesOp>().data;
      if (!d.is_table()) {
        return Status::Unsupported("views cover table collections only");
      }
      return d.table();
    }
    case OpKind::kSelect: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return relational::Filter(in, *plan.As<SelectOp>().predicate);
    }
    case OpKind::kProject: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return relational::Project(in, plan.As<ProjectOp>().columns);
    }
    case OpKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return relational::Extend(in, plan.As<ExtendOp>().defs);
    }
    case OpKind::kRename: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return relational::Rename(in, plan.As<RenameOp>().mapping);
    }
    case OpKind::kJoin: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr l, child(0));
      NEXUS_ASSIGN_OR_RETURN(TablePtr r, child(1));
      return relational::HashJoin(l, r, plan.As<JoinOp>());
    }
    case OpKind::kAggregate: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return algebra::LowerAggregate(in, plan.As<AggregateOp>());
    }
    case OpKind::kSort: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return relational::Sort(in, plan.As<SortOp>().keys);
    }
    case OpKind::kLimit: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      const auto& op = plan.As<LimitOp>();
      return relational::Limit(in, op.limit, op.offset);
    }
    case OpKind::kDistinct: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, child(0));
      return relational::Distinct(in);
    }
    case OpKind::kUnion: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr l, child(0));
      NEXUS_ASSIGN_OR_RETURN(TablePtr r, child(1));
      return relational::Union(l, r);
    }
    default:
      return Status::Unsupported(
          StrCat(OpKindName(plan.kind()), " is not supported in views"));
  }
}

// ---------------------------------------------------------------------------
// ViewRegistry.
// ---------------------------------------------------------------------------

struct ViewRegistry::ViewImpl {
  PlanPtr plan;
  DeltaForm form;
  std::unique_ptr<RtNode> root;  // null when statically refused
  bool agg_root = false;
  AggState agg;
  RowStore out;  // non-aggregate roots: the retained output
  TablePtr result;
  int64_t charged_bytes = 0;

  int64_t StateBytes() const {
    int64_t bytes = agg.bytes() + out.bytes();
    if (root != nullptr) bytes += NodeStateBytes(*root);
    return bytes;
  }

  void ResetState() {
    if (form.supported()) root = BuildRt(*form.root);
    agg = AggState{};
    out = RowStore{};
    if (root != nullptr) out.all.width = root->key_width;
    result.reset();
  }

  /// One incremental pass: pull deltas, fold the root, refresh `result`.
  Status ProcessOnce(const InMemoryCatalog& catalog, RefreshInfo* info) {
    if (agg_root) {
      NEXUS_ASSIGN_OR_RETURN(DeltaBatch batch,
                             Pull(root->children[0].get(), catalog));
      info->delta_rows += batch.num_rows();
      const auto& spec = root->plan->As<AggregateOp>();
      NEXUS_RETURN_NOT_OK(FoldAgg(&agg, spec, batch));
      NEXUS_ASSIGN_OR_RETURN(result, BuildAggOutput(agg, spec));
      return Status::OK();
    }
    NEXUS_ASSIGN_OR_RETURN(DeltaBatch batch, Pull(root.get(), catalog));
    info->delta_rows += batch.num_rows();
    NEXUS_RETURN_NOT_OK(out.Merge(std::move(batch)));
    NEXUS_RETURN_NOT_OK(out.Materialize());
    result = out.all.rows;
    return Status::OK();
  }

  /// Discards all retained state and replays the whole tables through the
  /// delta pipeline — the runtime-refusal fallback and the initial build.
  Status FullRebuild(const InMemoryCatalog& catalog, RefreshInfo* info) {
    ResetState();
    return ProcessOnce(catalog, info);
  }
};

ViewRegistry::ViewRegistry(InMemoryCatalog* catalog) : catalog_(catalog) {}

ViewRegistry::~ViewRegistry() {
  for (auto& [name, v] : views_) {
    if (v->charged_bytes > 0) ReleaseAllocation(v->charged_bytes);
  }
}

Status ViewRegistry::Register(const std::string& name, PlanPtr plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.count(name) != 0) {
    return Status::AlreadyExists(StrCat("view '", name, "' already registered"));
  }
  auto v = std::make_unique<ViewImpl>();
  v->plan = std::move(plan);
  v->form = RewriteToDelta(v->plan);
  if (v->form.supported()) {
    v->agg_root = v->form.root->kind == DeltaKind::kAggregate;
    RefreshInfo info;
    NEXUS_RETURN_NOT_OK(v->FullRebuild(*catalog_, &info));
  } else {
    NEXUS_ASSIGN_OR_RETURN(v->result, ExecuteViewPlan(*v->plan, *catalog_));
  }
  int64_t bytes = v->StateBytes();
  if (bytes > 0) ChargeAllocation(bytes);
  v->charged_bytes = bytes;
  views_[name] = std::move(v);
  PublishStateBytesLocked();
  return Status::OK();
}

Status ViewRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no view named '", name, "'"));
  }
  if (it->second->charged_bytes > 0) {
    ReleaseAllocation(it->second->charged_bytes);
  }
  views_.erase(it);
  PublishStateBytesLocked();
  return Status::OK();
}

Result<TablePtr> ViewRegistry::Refresh(const std::string& name,
                                       RefreshInfo* info) {
  std::lock_guard<std::mutex> lock(mu_);
  return RefreshLocked(name, info);
}

Result<TablePtr> ViewRegistry::RefreshLocked(const std::string& name,
                                             RefreshInfo* info) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no view named '", name, "'"));
  }
  ViewImpl* v = it->second.get();
  RefreshInfo local;
  if (info == nullptr) info = &local;
  *info = RefreshInfo{};
  telemetry::Count(QueryStat::kViewRefreshes);
  if (!v->form.supported()) {
    telemetry::Count(QueryStat::kViewFallbacks);
    info->refusal = v->form.refusal;
    NEXUS_ASSIGN_OR_RETURN(v->result, ExecuteViewPlan(*v->plan, *catalog_));
  } else {
    Status st = v->ProcessOnce(*catalog_, info);
    if (IsRefusal(st)) {
      telemetry::Count(QueryStat::kViewFallbacks);
      info->fell_back = true;
      info->refusal = RefusalReason(st);
      info->delta_rows = 0;
      NEXUS_RETURN_NOT_OK(v->FullRebuild(*catalog_, info));
    } else {
      NEXUS_RETURN_NOT_OK(st);
      info->incremental = true;
    }
    telemetry::Count(QueryStat::kViewDeltaRows, info->delta_rows);
  }
  // Re-account retained state: release the previous charge, charge the new
  // footprint, and let the spill policy park join sides when over budget.
  int64_t bytes = v->StateBytes();
  if (bytes > 0) ChargeAllocation(bytes);
  if (v->charged_bytes > 0) ReleaseAllocation(v->charged_bytes);
  v->charged_bytes = bytes;
  if (spill::ShouldSpill(PublishStateBytesLocked())) {
    NEXUS_RETURN_NOT_OK(ShedStateLocked(spill::SpillBudgetBytes()));
  }
  info->state_bytes = v->StateBytes();
  return v->result;
}

Result<TablePtr> ViewRegistry::Current(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no view named '", name, "'"));
  }
  return it->second->result;
}

Result<std::string> ViewRegistry::Describe(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("no view named '", name, "'"));
  }
  return DescribeDeltaForm(it->second->form);
}

int64_t ViewRegistry::state_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StateBytesLocked();
}

int64_t ViewRegistry::StateBytesLocked() const {
  int64_t total = 0;
  for (const auto& [name, v] : views_) total += v->StateBytes();
  return total;
}

int64_t ViewRegistry::PublishStateBytesLocked() const {
  const int64_t total = StateBytesLocked();
  StateBytesGauge()->Set(static_cast<double>(total));
  return total;
}

Status ViewRegistry::ShedState(int64_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return ShedStateLocked(budget_bytes);
}

Status ViewRegistry::ShedStateLocked(int64_t budget_bytes) {
  std::vector<RowStore*> sides;
  for (const auto& [name, v] : views_) {
    if (v->root != nullptr) CollectSides(v->root.get(), &sides);
  }
  std::sort(sides.begin(), sides.end(), [](RowStore* a, RowStore* b) {
    return a->bytes() > b->bytes();
  });
  int64_t resident = 0;
  for (RowStore* s : sides) resident += s->bytes();
  for (RowStore* s : sides) {
    if (budget_bytes > 0 && resident <= budget_bytes) break;
    int64_t freed = s->bytes();
    if (freed == 0) continue;
    NEXUS_RETURN_NOT_OK(s->Park());
    resident -= freed;
  }
  return Status::OK();
}

}  // namespace incremental
}  // namespace nexus
