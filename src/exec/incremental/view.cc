#include "exec/incremental/view.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
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
#include "telemetry/metrics.h"

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
// sort by key reproduces the full-recompute row order exactly.
// ---------------------------------------------------------------------------

using Key = std::vector<int64_t>;

constexpr int64_t kKeyPad = std::numeric_limits<int64_t>::min();

// Hidden key-column prefixes carried through relational::HashJoin so the
// join's gather recovers each output pair's (left, right) keys.
constexpr const char* kLeftKeyPrefix = "__nxlk";
constexpr const char* kRightKeyPrefix = "__nxrk";

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

/// A batch of delta rows sorted by scratch-order key (keys parallel rows).
struct DeltaBatch {
  TablePtr rows;
  std::vector<Key> keys;
  int64_t num_rows() const { return rows == nullptr ? 0 : rows->num_rows(); }
};

Result<TablePtr> AugmentKeys(const TablePtr& t, const std::vector<Key>& keys,
                             int width, const char* prefix) {
  std::vector<Field> fields = t->schema()->fields();
  std::vector<Column> cols = t->columns();
  for (int k = 0; k < width; ++k) {
    std::vector<int64_t> comp(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      comp[i] = keys[i][static_cast<size_t>(k)];
    }
    fields.push_back(
        Field::Attr(StrCat(prefix, static_cast<int64_t>(k)), DataType::kInt64));
    cols.push_back(Column::FromInt64(std::move(comp)));
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  return Table::Make(std::move(schema), std::move(cols));
}

// ---------------------------------------------------------------------------
// Runtime state tree.
// ---------------------------------------------------------------------------

/// One join side's retained build state: the child's full output to date,
/// augmented with its key columns and kept in key order. May be parked in a
/// spill file between refreshes (exec/spill policy).
struct SideState {
  // Retained rows live as a materialized prefix plus in-key-order tail
  // chunks, so the hot path — one more append-only delta — is O(|Δ|): the
  // chunk is pushed, nothing is copied. Chunks collapse into the prefix
  // only when the whole side is needed as a join input (the other side
  // produced a delta) or when parking to scratch.
  TablePtr rows;  // augmented: child columns + key columns; sorted by key
  std::vector<TablePtr> tail_chunks;
  std::vector<Key> keys;  // prefix + chunk rows, sorted
  int key_width = 0;
  std::unique_ptr<spill::SpillFile> parked;
  SchemaPtr parked_schema;
  int64_t parked_rows = 0;

  int64_t num_rows() const {
    int64_t n = rows == nullptr ? 0 : rows->num_rows();
    for (const TablePtr& c : tail_chunks) n += c->num_rows();
    return n;
  }

  int64_t bytes() const {
    int64_t b = rows == nullptr ? 0 : rows->ByteSize();
    for (const TablePtr& c : tail_chunks) b += c->ByteSize();
    if (b == 0) return 0;
    return b + static_cast<int64_t>(keys.size()) * (key_width + 2) * 8;
  }
};

/// Collapses tail chunks into the materialized prefix (one concatenation
/// pass). After this, `rows` holds every retained row of the side.
Status MaterializeSide(SideState* side) {
  if (side->tail_chunks.empty()) return Status::OK();
  TablePtr base = side->rows != nullptr ? side->rows : side->tail_chunks[0];
  std::vector<Column> cols = base->columns();
  for (size_t i = side->rows != nullptr ? 0 : 1; i < side->tail_chunks.size();
       ++i) {
    const TablePtr& chunk = side->tail_chunks[i];
    for (size_t c = 0; c < cols.size(); ++c) {
      NEXUS_RETURN_NOT_OK(
          cols[c].AppendColumn(chunk->column(static_cast<int>(c))));
    }
  }
  NEXUS_ASSIGN_OR_RETURN(side->rows,
                         Table::Make(base->schema(), std::move(cols)));
  side->tail_chunks.clear();
  return Status::OK();
}

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

  // kJoin.
  SideState left, right;
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
      node->left.key_width = node->children[0]->key_width;
      node->right.key_width = node->children[1]->key_width;
      node->key_width = node->left.key_width + node->right.key_width;
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

void CollectSides(RtNode* node, std::vector<SideState*>* out) {
  if (node->kind == DeltaKind::kJoin) {
    out->push_back(&node->left);
    out->push_back(&node->right);
  }
  for (auto& c : node->children) CollectSides(c.get(), out);
}

Status ParkSide(SideState* side) {
  if (side->parked != nullptr || side->num_rows() == 0) {
    return Status::OK();
  }
  NEXUS_RETURN_NOT_OK(MaterializeSide(side));
  NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<spill::SpillFile> file,
                         spill::SpillManager::Global().Create("ivm-state"));
  NEXUS_RETURN_NOT_OK(file->Append(side->rows));
  side->parked_schema = side->rows->schema();
  side->parked_rows = side->rows->num_rows();
  spill::ReleaseTable(side->rows);
  side->rows.reset();
  side->keys.clear();
  side->keys.shrink_to_fit();
  side->parked = std::move(file);
  return Status::OK();
}

Status EnsureLoaded(SideState* side) {
  if (side->parked == nullptr) return Status::OK();
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, side->parked->ReadAll(side->parked_schema));
  const int width = side->key_width;
  const int first_key_col = t->num_columns() - width;
  std::vector<Key> keys(static_cast<size_t>(t->num_rows()),
                        Key(static_cast<size_t>(width)));
  for (int k = 0; k < width; ++k) {
    const auto& v = t->column(first_key_col + k).ints();
    for (size_t r = 0; r < keys.size(); ++r) keys[r][static_cast<size_t>(k)] = v[r];
  }
  side->rows = std::move(t);
  side->keys = std::move(keys);
  side->parked.reset();  // unlinks the scratch file
  side->parked_schema.reset();
  side->parked_rows = 0;
  return Status::OK();
}

/// Merges an augmented, key-sorted delta into a side accumulator, keeping it
/// sorted. The steady-state path — all delta keys beyond the last retained
/// key — is a plain column append.
Status MergeSide(SideState* side, const TablePtr& aug,
                 const std::vector<Key>& keys) {
  if (side->num_rows() == 0) {
    if (side->rows != nullptr && keys.empty()) return Status::OK();
    side->rows = aug;
    side->tail_chunks.clear();
    side->keys = keys;
    return Status::OK();
  }
  if (keys.empty()) return Status::OK();
  if (side->keys.back() < keys.front()) {
    // The hot path: the delta strictly follows everything retained, so it
    // rides along as a chunk — no copy of the retained rows.
    side->tail_chunks.push_back(aug);
    side->keys.insert(side->keys.end(), keys.begin(), keys.end());
    return Status::OK();
  }
  // Mid-stream insert: concatenate, then gather in merged key order.
  NEXUS_RETURN_NOT_OK(MaterializeSide(side));
  const int64_t n1 = side->rows->num_rows();
  const int64_t n2 = aug->num_rows();
  std::vector<Column> cols = side->rows->columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    NEXUS_RETURN_NOT_OK(cols[c].AppendColumn(aug->column(static_cast<int>(c))));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr combined,
                         Table::Make(side->rows->schema(), std::move(cols)));
  std::vector<int64_t> order;
  std::vector<Key> merged_keys;
  order.reserve(static_cast<size_t>(n1 + n2));
  merged_keys.reserve(static_cast<size_t>(n1 + n2));
  int64_t i = 0, j = 0;
  while (i < n1 || j < n2) {
    bool take_left =
        j >= n2 || (i < n1 && side->keys[static_cast<size_t>(i)] <
                                  keys[static_cast<size_t>(j)]);
    if (take_left) {
      order.push_back(i);
      merged_keys.push_back(side->keys[static_cast<size_t>(i)]);
      ++i;
    } else {
      order.push_back(n1 + j);
      merged_keys.push_back(keys[static_cast<size_t>(j)]);
      ++j;
    }
  }
  side->rows = combined->TakeRows(order);
  side->keys = std::move(merged_keys);
  return Status::OK();
}

Result<SchemaPtr> JoinOutputSchema(const SchemaPtr& left, const SchemaPtr& right,
                                   const JoinOp& spec) {
  std::vector<Field> fields = left->fields();
  for (int c = 0; c < right->num_fields(); ++c) {
    const Field& f = right->field(c);
    if (std::find(spec.right_keys.begin(), spec.right_keys.end(), f.name) !=
        spec.right_keys.end()) {
      continue;
    }
    Field out = f;
    out.is_dimension = false;
    fields.push_back(std::move(out));
  }
  return Schema::Make(std::move(fields));
}

// ---------------------------------------------------------------------------
// Delta pull: one refresh's walk of the runtime tree. Each call returns the
// node's delta rows sorted by key and advances retained state.
// ---------------------------------------------------------------------------

Result<DeltaBatch> Pull(RtNode* node, const InMemoryCatalog& catalog);

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
  DeltaBatch batch;
  batch.keys.reserve(static_cast<size_t>(delta->num_rows()));
  for (int64_t r = 0; r < delta->num_rows(); ++r) {
    batch.keys.push_back(Key{node->consumed_rows + r});
  }
  node->consumed_epoch = tail.epoch;
  node->consumed_rows += delta->num_rows();
  batch.rows = std::move(delta);
  return batch;
}

Result<DeltaBatch> PullConst(RtNode* node) {
  const TablePtr& t = node->plan->As<ValuesOp>().data.table();
  DeltaBatch batch;
  if (node->const_emitted) {
    batch.rows = Table::Empty(t->schema());
    return batch;
  }
  node->const_emitted = true;
  batch.rows = t;
  batch.keys.reserve(static_cast<size_t>(t->num_rows()));
  for (int64_t r = 0; r < t->num_rows(); ++r) batch.keys.push_back(Key{r});
  return batch;
}

Result<DeltaBatch> PullJoin(RtNode* node, const InMemoryCatalog& catalog) {
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch dl, Pull(node->children[0].get(), catalog));
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch dr, Pull(node->children[1].get(), catalog));
  const auto& spec = node->plan->As<JoinOp>();
  NEXUS_RETURN_NOT_OK(EnsureLoaded(&node->left));
  NEXUS_RETURN_NOT_OK(EnsureLoaded(&node->right));
  const int wl = node->left.key_width;
  const int wr = node->right.key_width;
  NEXUS_ASSIGN_OR_RETURN(TablePtr adl,
                         AugmentKeys(dl.rows, dl.keys, wl, kLeftKeyPrefix));
  NEXUS_ASSIGN_OR_RETURN(TablePtr adr,
                         AugmentKeys(dr.rows, dr.keys, wr, kRightKeyPrefix));
  NEXUS_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      JoinOutputSchema(dl.rows->schema(), dr.rows->schema(), spec));
  const int lreal = dl.rows->schema()->num_fields();
  const int rout_real = out_schema->num_fields() - lreal;

  // Collect new pairs from both delta terms; the augmented join output lays
  // columns out as [left real][left keys][right real non-key][right keys].
  std::vector<Column> all_cols;
  std::vector<Key> all_keys;
  auto add_pairs = [&](const TablePtr& jo) -> Status {
    const int64_t n = jo->num_rows();
    size_t base = all_keys.size();
    all_keys.resize(base + static_cast<size_t>(n),
                    Key(static_cast<size_t>(wl + wr)));
    for (int k = 0; k < wl; ++k) {
      const auto& v = jo->column(lreal + k).ints();
      for (int64_t r = 0; r < n; ++r) {
        all_keys[base + static_cast<size_t>(r)][static_cast<size_t>(k)] =
            v[static_cast<size_t>(r)];
      }
    }
    for (int k = 0; k < wr; ++k) {
      const auto& v = jo->column(lreal + wl + rout_real + k).ints();
      for (int64_t r = 0; r < n; ++r) {
        all_keys[base + static_cast<size_t>(r)][static_cast<size_t>(wl + k)] =
            v[static_cast<size_t>(r)];
      }
    }
    if (all_cols.empty()) {
      for (int c = 0; c < lreal; ++c) all_cols.push_back(jo->column(c));
      for (int c = 0; c < rout_real; ++c) {
        all_cols.push_back(jo->column(lreal + wl + c));
      }
    } else {
      for (int c = 0; c < lreal; ++c) {
        NEXUS_RETURN_NOT_OK(
            all_cols[static_cast<size_t>(c)].AppendColumn(jo->column(c)));
      }
      for (int c = 0; c < rout_real; ++c) {
        NEXUS_RETURN_NOT_OK(all_cols[static_cast<size_t>(lreal + c)].AppendColumn(
            jo->column(lreal + wl + c)));
      }
    }
    return Status::OK();
  };

  // Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR — the two terms partition the new
  // pairs (term 1's right rows predate ΔR, term 2's are exactly ΔR).
  if (dl.num_rows() > 0 && node->right.num_rows() > 0) {
    NEXUS_RETURN_NOT_OK(MaterializeSide(&node->right));
    NEXUS_ASSIGN_OR_RETURN(TablePtr jo,
                           relational::HashJoin(adl, node->right.rows, spec));
    NEXUS_RETURN_NOT_OK(add_pairs(jo));
  }
  NEXUS_RETURN_NOT_OK(MergeSide(&node->left, adl, dl.keys));
  if (dr.num_rows() > 0 && node->left.num_rows() > 0) {
    NEXUS_RETURN_NOT_OK(MaterializeSide(&node->left));
    NEXUS_ASSIGN_OR_RETURN(TablePtr jo,
                           relational::HashJoin(node->left.rows, adr, spec));
    NEXUS_RETURN_NOT_OK(add_pairs(jo));
  }
  NEXUS_RETURN_NOT_OK(MergeSide(&node->right, adr, dr.keys));

  DeltaBatch batch;
  if (all_keys.empty()) {
    batch.rows = Table::Empty(out_schema);
    return batch;
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr combined,
                         Table::Make(out_schema, std::move(all_cols)));
  // Pair keys are unique (one per (left row, right row)), so a plain sort
  // restores the engine's lexicographic (left, right) emission order.
  std::vector<int64_t> order(all_keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return all_keys[static_cast<size_t>(a)] < all_keys[static_cast<size_t>(b)];
  });
  batch.rows = combined->TakeRows(order);
  batch.keys.reserve(order.size());
  for (int64_t idx : order) {
    batch.keys.push_back(std::move(all_keys[static_cast<size_t>(idx)]));
  }
  return batch;
}

Result<DeltaBatch> PullUnion(RtNode* node, const InMemoryCatalog& catalog) {
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch l, Pull(node->children[0].get(), catalog));
  NEXUS_ASSIGN_OR_RETURN(DeltaBatch r, Pull(node->children[1].get(), catalog));
  const size_t width = static_cast<size_t>(node->key_width);
  DeltaBatch batch;
  batch.keys.reserve(l.keys.size() + r.keys.size());
  auto tag = [&](int64_t branch, const Key& k) {
    Key out;
    out.reserve(width);
    out.push_back(branch);
    out.insert(out.end(), k.begin(), k.end());
    out.resize(width, kKeyPad);
    batch.keys.push_back(std::move(out));
  };
  for (const Key& k : l.keys) tag(0, k);
  for (const Key& k : r.keys) tag(1, k);
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
    case DeltaKind::kFilter: {
      NEXUS_ASSIGN_OR_RETURN(DeltaBatch c, Pull(node->children[0].get(), catalog));
      const auto& op = node->plan->As<SelectOp>();
      NEXUS_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                             EvalPredicate(*op.predicate, *c.rows));
      DeltaBatch batch;
      batch.rows = c.rows->TakeRows(sel);
      batch.keys.reserve(sel.size());
      for (int64_t s : sel) {
        batch.keys.push_back(std::move(c.keys[static_cast<size_t>(s)]));
      }
      return batch;
    }
    case DeltaKind::kProject: {
      NEXUS_ASSIGN_OR_RETURN(DeltaBatch c, Pull(node->children[0].get(), catalog));
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr rows,
          relational::Project(c.rows, node->plan->As<ProjectOp>().columns));
      return DeltaBatch{std::move(rows), std::move(c.keys)};
    }
    case DeltaKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(DeltaBatch c, Pull(node->children[0].get(), catalog));
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr rows,
          relational::Extend(c.rows, node->plan->As<ExtendOp>().defs));
      return DeltaBatch{std::move(rows), std::move(c.keys)};
    }
    case DeltaKind::kRename: {
      NEXUS_ASSIGN_OR_RETURN(DeltaBatch c, Pull(node->children[0].get(), catalog));
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr rows,
          relational::Rename(c.rows, node->plan->As<RenameOp>().mapping));
      return DeltaBatch{std::move(rows), std::move(c.keys)};
    }
    case DeltaKind::kJoin:
      return PullJoin(node, catalog);
    case DeltaKind::kUnion:
      return PullUnion(node, catalog);
    case DeltaKind::kAggregate:
      break;
  }
  return Status::Internal("aggregate must be pulled through its view root");
}

// ---------------------------------------------------------------------------
// Root Reduce⊕ state: per-group fold states of the one grouped fold
// (algebra::FoldRow / FinishAgg, the same arithmetic as LowerAggregate),
// plus the scratch-order bookkeeping (first_key for group output order,
// max_key for the order-sensitivity guard). Float SUM/MIN/MAX and AVG of
// any input type are order-sensitive — fp addition is non-associative and
// min/max keep the accumulator on NaN and ±0.0 ties — which is exactly why
// out-of-order delta rows refuse below.
// ---------------------------------------------------------------------------

struct Group {
  std::vector<Value> rep;  // group-by values of the group's first row
  Key first_key;           // output order = ascending first_key
  Key max_key;             // guard: order-sensitive folds refuse below this
  std::vector<algebra::MonoidState> states;
};

struct AggState {
  bool init = false;
  std::vector<int> group_cols;
  std::vector<algebra::FoldSpec> folds;
  std::vector<DataType> agg_types;
  bool order_sensitive = false;
  SchemaPtr child_schema;
  SchemaPtr out_schema;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  std::vector<Group> groups;

  int64_t bytes() const {
    int64_t per_group = static_cast<int64_t>(
        folds.size() * sizeof(algebra::MonoidState) + group_cols.size() * 32 +
        96);
    return static_cast<int64_t>(groups.size()) * per_group;
  }

  void Reset() {
    init = false;
    group_cols.clear();
    folds.clear();
    agg_types.clear();
    order_sensitive = false;
    child_schema.reset();
    out_schema.reset();
    buckets.clear();
    groups.clear();
  }
};

// relational::GroupKeysEqual against a stored representative row.
bool RepEquals(const std::vector<Value>& rep, const Table& t, int64_t r,
               const std::vector<int>& cols) {
  for (size_t i = 0; i < cols.size(); ++i) {
    const Column& c = t.column(cols[i]);
    bool row_null = c.IsNull(r);
    if (rep[i].is_null() != row_null) return false;
    if (row_null) continue;
    if (rep[i] != c.GetValue(r)) return false;
  }
  return true;
}

Status InitAgg(AggState* agg, const AggregateOp& spec,
               const SchemaPtr& child_schema) {
  agg->child_schema = child_schema;
  for (const std::string& g : spec.group_by) {
    NEXUS_ASSIGN_OR_RETURN(int i, child_schema->FindFieldOrError(g));
    agg->group_cols.push_back(i);
  }
  std::vector<Field> fields;
  for (int c : agg->group_cols) fields.push_back(child_schema->field(c));
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

Status FoldAgg(AggState* agg, const AggregateOp& spec, const DeltaBatch& batch) {
  if (!agg->init) {
    NEXUS_RETURN_NOT_OK(InitAgg(agg, spec, batch.rows->schema()));
  }
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
  for (int64_t r = 0; r < n; ++r) {
    const Key& key = batch.keys[static_cast<size_t>(r)];
    std::vector<size_t>& bucket = agg->buckets[hashes[static_cast<size_t>(r)]];
    size_t gi = SIZE_MAX;
    for (size_t g : bucket) {
      if (RepEquals(agg->groups[g].rep, input, r, agg->group_cols)) {
        gi = g;
        break;
      }
    }
    if (gi == SIZE_MAX) {
      gi = agg->groups.size();
      bucket.push_back(gi);
      Group ng;
      ng.rep.reserve(agg->group_cols.size());
      for (int c : agg->group_cols) ng.rep.push_back(input.column(c).GetValue(r));
      ng.first_key = key;
      ng.max_key = key;
      ng.states.resize(spec.aggs.size());
      agg->groups.push_back(std::move(ng));
    } else {
      Group& gr = agg->groups[gi];
      if (agg->order_sensitive && key < gr.max_key) {
        return Refuse(
            "order-sensitive ⊕-fold received an out-of-order delta row");
      }
      if (key < gr.first_key) {
        // This row is now the group's first in full-recompute order: it
        // becomes the representative (bit-exact for -0.0 / NaN payloads).
        gr.first_key = key;
        gr.rep.clear();
        for (int c : agg->group_cols) gr.rep.push_back(input.column(c).GetValue(r));
      }
      if (gr.max_key < key) gr.max_key = key;
    }
    std::vector<algebra::MonoidState>& gs = agg->groups[gi].states;
    for (size_t a = 0; a < agg->folds.size(); ++a) {
      NEXUS_RETURN_NOT_OK(
          algebra::FoldRow(agg->folds[a], agg_inputs[a], r, &gs[a]));
    }
  }
  return Status::OK();
}

Result<TablePtr> BuildAggOutput(const AggState& agg, const AggregateOp& spec) {
  std::vector<size_t> order(agg.groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return agg.groups[a].first_key < agg.groups[b].first_key;
  });
  // SQL semantics: a global aggregate over empty input yields one row.
  const bool synth_empty = agg.group_cols.empty() && agg.groups.empty();
  std::vector<Column> cols;
  for (size_t i = 0; i < agg.group_cols.size(); ++i) {
    Column col(agg.child_schema->field(agg.group_cols[i]).type);
    col.Reserve(static_cast<int64_t>(order.size()));
    for (size_t g : order) {
      NEXUS_RETURN_NOT_OK(col.Append(agg.groups[g].rep[i]));
    }
    cols.push_back(std::move(col));
  }
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    Column col(
        agg.out_schema->field(static_cast<int>(agg.group_cols.size() + a)).type);
    col.Reserve(static_cast<int64_t>(order.size()) + (synth_empty ? 1 : 0));
    for (size_t g : order) {
      NEXUS_RETURN_NOT_OK(col.Append(algebra::FinishAgg(
          agg.groups[g].states[a], spec.aggs[a].func, agg.agg_types[a])));
    }
    if (synth_empty) {
      NEXUS_RETURN_NOT_OK(col.Append(algebra::FinishAgg(
          algebra::MonoidState{}, spec.aggs[a].func, agg.agg_types[a])));
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
  TablePtr out_rows;  // non-aggregate roots: retained output in key order
  std::vector<Key> out_keys;
  TablePtr result;
  int64_t charged_bytes = 0;

  int64_t StateBytes() const {
    int64_t bytes = 0;
    if (root != nullptr) bytes += NodeStateBytes(*root);
    bytes += agg.bytes();
    if (out_rows != nullptr) {
      bytes += out_rows->ByteSize() +
               static_cast<int64_t>(out_keys.size()) *
                   (root == nullptr ? 2 : root->key_width + 2) * 8;
    }
    return bytes;
  }

  void ResetState() {
    if (form.supported()) root = BuildRt(*form.root);
    agg.Reset();
    out_rows.reset();
    out_keys.clear();
    result.reset();
  }

  Status MergeOut(DeltaBatch batch) {
    if (out_rows == nullptr || out_rows->num_rows() == 0) {
      if (out_rows != nullptr && batch.num_rows() == 0) return Status::OK();
      out_rows = std::move(batch.rows);
      out_keys = std::move(batch.keys);
      return Status::OK();
    }
    if (batch.num_rows() == 0) return Status::OK();
    if (out_keys.back() < batch.keys.front()) {
      std::vector<Column> cols = out_rows->columns();
      for (size_t c = 0; c < cols.size(); ++c) {
        NEXUS_RETURN_NOT_OK(
            cols[c].AppendColumn(batch.rows->column(static_cast<int>(c))));
      }
      NEXUS_ASSIGN_OR_RETURN(out_rows,
                             Table::Make(out_rows->schema(), std::move(cols)));
      out_keys.insert(out_keys.end(), batch.keys.begin(), batch.keys.end());
      return Status::OK();
    }
    const int64_t n1 = out_rows->num_rows();
    const int64_t n2 = batch.rows->num_rows();
    std::vector<Column> cols = out_rows->columns();
    for (size_t c = 0; c < cols.size(); ++c) {
      NEXUS_RETURN_NOT_OK(
          cols[c].AppendColumn(batch.rows->column(static_cast<int>(c))));
    }
    NEXUS_ASSIGN_OR_RETURN(TablePtr combined,
                           Table::Make(out_rows->schema(), std::move(cols)));
    std::vector<int64_t> order;
    std::vector<Key> merged;
    order.reserve(static_cast<size_t>(n1 + n2));
    merged.reserve(static_cast<size_t>(n1 + n2));
    int64_t i = 0, j = 0;
    while (i < n1 || j < n2) {
      bool take_left = j >= n2 || (i < n1 && out_keys[static_cast<size_t>(i)] <
                                                 batch.keys[static_cast<size_t>(j)]);
      if (take_left) {
        order.push_back(i);
        merged.push_back(std::move(out_keys[static_cast<size_t>(i)]));
        ++i;
      } else {
        order.push_back(n1 + j);
        merged.push_back(std::move(batch.keys[static_cast<size_t>(j)]));
        ++j;
      }
    }
    out_rows = combined->TakeRows(order);
    out_keys = std::move(merged);
    return Status::OK();
  }

  /// One incremental pass: pull deltas, fold the root, refresh `result`.
  Status ProcessOnce(const InMemoryCatalog& catalog, RefreshInfo* info) {
    if (agg_root) {
      NEXUS_ASSIGN_OR_RETURN(DeltaBatch batch,
                             Pull(root->children[0].get(), catalog));
      info->delta_rows += batch.num_rows();
      NEXUS_RETURN_NOT_OK(
          FoldAgg(&agg, root->plan->As<AggregateOp>(), batch));
      NEXUS_ASSIGN_OR_RETURN(result,
                             BuildAggOutput(agg, root->plan->As<AggregateOp>()));
      return Status::OK();
    }
    NEXUS_ASSIGN_OR_RETURN(DeltaBatch batch, Pull(root.get(), catalog));
    info->delta_rows += batch.num_rows();
    TablePtr empty_schema_holder = batch.rows;
    NEXUS_RETURN_NOT_OK(MergeOut(std::move(batch)));
    result = out_rows != nullptr ? out_rows
                                 : Table::Empty(empty_schema_holder->schema());
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
  int64_t total = 0;
  for (const auto& [n, view] : views_) total += view->StateBytes();
  StateBytesGauge()->Set(static_cast<double>(total));
  if (spill::ShouldSpill(total)) {
    NEXUS_RETURN_NOT_OK(ShedState(spill::SpillBudgetBytes()));
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
  int64_t total = 0;
  for (const auto& [name, v] : views_) total += v->StateBytes();
  return total;
}

Status ViewRegistry::ShedState(int64_t budget_bytes) {
  // Caller may or may not hold mu_ (Refresh calls this internally); the
  // public entry point is only safe because std::mutex is not recursive —
  // so collect under a try-lock-free design: this method requires external
  // serialization with Refresh, which the registry's single-writer contract
  // provides (Refresh itself is the only internal caller, already locked).
  std::vector<SideState*> sides;
  for (const auto& [name, v] : views_) {
    if (v->root != nullptr) CollectSides(v->root.get(), &sides);
  }
  std::sort(sides.begin(), sides.end(), [](SideState* a, SideState* b) {
    return a->bytes() > b->bytes();
  });
  int64_t resident = 0;
  for (SideState* s : sides) resident += s->bytes();
  for (SideState* s : sides) {
    if (budget_bytes > 0 && resident <= budget_bytes) break;
    int64_t freed = s->bytes();
    if (freed == 0) continue;
    NEXUS_RETURN_NOT_OK(ParkSide(s));
    resident -= freed;
  }
  return Status::OK();
}

}  // namespace incremental
}  // namespace nexus
