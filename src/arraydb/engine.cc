#include "arraydb/engine.h"

#include <algorithm>
#include <map>

#include "algebra/kernels.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "expr/eval.h"
#include "exec/spill/chunk_pager.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace arraydb {

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

Result<int> DimIndexOrError(const NDArray& in, const std::string& name) {
  int i = in.DimIndex(name);
  if (i < 0) {
    return Status::NotFound(StrCat("array has no dimension '", name, "'"));
  }
  return i;
}

/// Materializes the occupied cells of one chunk as a columnar table whose
/// schema is the array's combined schema (dims first, then attributes).
/// `offsets` receives the chunk-local offset of each emitted row.
Result<TablePtr> ChunkTable(const NDArray& in, const ArrayChunk& chunk,
                            std::vector<int64_t>* offsets) {
  offsets->clear();
  int64_t volume = chunk.Volume();
  for (int64_t off = 0; off < volume; ++off) {
    if (chunk.occupied[static_cast<size_t>(off)]) offsets->push_back(off);
  }
  // Dimension columns.
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(in.num_dims()) + chunk.attrs.size());
  for (int d = 0; d < in.num_dims(); ++d) {
    std::vector<int64_t> coords_col;
    coords_col.reserve(offsets->size());
    for (int64_t off : *offsets) {
      coords_col.push_back(chunk.lo[static_cast<size_t>(d)] +
                           chunk.LocalCoords(off)[static_cast<size_t>(d)]);
    }
    cols.push_back(Column::FromInt64(std::move(coords_col)));
  }
  for (const Column& attr : chunk.attrs) {
    cols.push_back(attr.Take(*offsets));
  }
  return Table::Make(in.CombinedSchema(), std::move(cols));
}

/// Hands a freshly built result to the spill policy: when out-of-core
/// execution is on and the array exceeds the query's budget, the tail
/// chunks park in the scratch store (SpillChunkPager) and fault back in
/// lazily, so a big-op result counts against the budget only for its
/// resident prefix.
Result<NDArrayPtr> Finish(std::shared_ptr<NDArray> out) {
  NEXUS_RETURN_NOT_OK(spill::ShedArray(out, "array").status());
  return NDArrayPtr(std::move(out));
}

}  // namespace

Result<NDArrayPtr> Slice(const NDArray& in, const std::vector<DimRange>& ranges) {
  // Clip the box against the array bounds.
  std::vector<int64_t> lo(static_cast<size_t>(in.num_dims()));
  std::vector<int64_t> hi(static_cast<size_t>(in.num_dims()));
  for (int d = 0; d < in.num_dims(); ++d) {
    lo[static_cast<size_t>(d)] = in.dim(d).start;
    hi[static_cast<size_t>(d)] = in.dim(d).end();
  }
  for (const DimRange& r : ranges) {
    NEXUS_ASSIGN_OR_RETURN(int d, DimIndexOrError(in, r.dim));
    lo[static_cast<size_t>(d)] = std::max(lo[static_cast<size_t>(d)], r.lo);
    hi[static_cast<size_t>(d)] = std::min(hi[static_cast<size_t>(d)], r.hi);
  }
  std::vector<DimensionSpec> dims;
  bool empty = false;
  for (int d = 0; d < in.num_dims(); ++d) {
    DimensionSpec spec = in.dim(d);
    spec.start = lo[static_cast<size_t>(d)];
    spec.length = hi[static_cast<size_t>(d)] - lo[static_cast<size_t>(d)];
    if (spec.length <= 0) {
      spec.start = in.dim(d).start;
      spec.length = 1;  // keep a valid (but unoccupied) geometry
      empty = true;
    }
    dims.push_back(spec);
  }
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(std::move(dims), in.attr_schema()));
  if (empty) return Finish(std::move(out));
  NEXUS_RETURN_NOT_OK(in.EnsureAllResident());
  ChunkCursor cursor(out.get());
  for (const ArrayChunk* chunk : in.chunks()) {
    // Chunk pruning: skip chunks whose box misses the slice box entirely.
    bool overlaps = true;
    for (int d = 0; d < in.num_dims(); ++d) {
      int64_t c_lo = chunk->lo[static_cast<size_t>(d)];
      int64_t c_hi = c_lo + chunk->extent[static_cast<size_t>(d)];
      if (c_hi <= lo[static_cast<size_t>(d)] || c_lo >= hi[static_cast<size_t>(d)]) {
        overlaps = false;
        break;
      }
    }
    if (!overlaps) continue;
    // Odometer over the chunk's intersection with the box, in the chunk's
    // row-major order; typed values copy straight into the output chunks.
    const size_t nd = chunk->extent.size();
    std::vector<int64_t> box_lo(nd), box_hi(nd);
    for (size_t d = 0; d < nd; ++d) {
      box_lo[d] = std::max(chunk->lo[d], lo[d]);
      box_hi[d] = std::min(chunk->lo[d] + chunk->extent[d], hi[d]);
    }
    std::vector<int64_t> coords = box_lo;
    while (true) {
      int64_t off = 0;
      for (size_t d = 0; d < nd; ++d) {
        off = off * chunk->extent[d] + (coords[d] - chunk->lo[d]);
      }
      if (chunk->occupied[static_cast<size_t>(off)]) {
        int64_t out_off = 0;
        NEXUS_ASSIGN_OR_RETURN(ArrayChunk * dst, cursor.Seek(coords.data(), &out_off));
        for (size_t a = 0; a < dst->attrs.size(); ++a) {
          dst->attrs[a].SetFrom(out_off, chunk->attrs[a], off);
        }
        dst->occupied[static_cast<size_t>(out_off)] = 1;
      }
      int d = static_cast<int>(nd) - 1;
      for (; d >= 0; --d) {
        if (++coords[static_cast<size_t>(d)] < box_hi[static_cast<size_t>(d)]) break;
        coords[static_cast<size_t>(d)] = box_lo[static_cast<size_t>(d)];
      }
      if (d < 0) break;
    }
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> Shift(
    const NDArray& in,
    const std::vector<std::pair<std::string, int64_t>>& offsets) {
  std::vector<DimensionSpec> dims = in.dims();
  for (const auto& [name, delta] : offsets) {
    NEXUS_ASSIGN_OR_RETURN(int d, DimIndexOrError(in, name));
    dims[static_cast<size_t>(d)].start += delta;
  }
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(std::move(dims), in.attr_schema()));
  // Metadata-only: the chunk grid is unchanged, only each chunk's global
  // low coordinate moves.
  for (const ArrayChunk* chunk : in.chunks()) {
    ArrayChunk moved = *chunk;
    for (int d = 0; d < out->num_dims(); ++d) {
      moved.lo[static_cast<size_t>(d)] =
          out->dim(d).start +
          moved.grid[static_cast<size_t>(d)] * out->dim(d).chunk_size;
    }
    NEXUS_RETURN_NOT_OK(out->PutChunk(std::move(moved)));
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> Apply(const NDArray& in,
                         const std::vector<std::pair<std::string, ExprPtr>>& defs) {
  // Extended attribute schema (types inferred against the combined schema).
  SchemaPtr combined = in.CombinedSchema();
  std::vector<Field> attr_fields = in.attr_schema()->fields();
  std::vector<Field> working_fields = combined->fields();
  for (const auto& [name, expr] : defs) {
    Schema working(working_fields);
    if (working.FindField(name) >= 0) {
      return Status::InvalidArgument(StrCat("apply output '", name,
                                            "' already exists"));
    }
    NEXUS_ASSIGN_OR_RETURN(DataType t, InferExprType(*expr, working));
    attr_fields.push_back(Field::Attr(name, t));
    working_fields.push_back(Field::Attr(name, t));
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr out_attrs, Schema::Make(attr_fields));
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(in.dims(), out_attrs));
  // A chunk is the natural morsel: every chunk's result lands in its own
  // pre-assigned slot, and PutChunk runs sequentially afterwards in the
  // deterministic grid order of in.chunks().
  std::vector<const ArrayChunk*> chunks = in.chunks();
  std::vector<ArrayChunk> results(chunks.size());
  std::vector<Status> statuses(chunks.size(), Status::OK());
  ParallelFor(static_cast<int64_t>(chunks.size()), 1, [&](int64_t cb, int64_t ce) {
    for (int64_t ci = cb; ci < ce; ++ci) {
      statuses[static_cast<size_t>(ci)] = [&]() -> Status {
        const ArrayChunk* chunk = chunks[static_cast<size_t>(ci)];
        std::vector<int64_t> offsets;
        NEXUS_ASSIGN_OR_RETURN(TablePtr cells, ChunkTable(in, *chunk, &offsets));
        ArrayChunk out_chunk = out->BlankChunk(chunk->grid);
        out_chunk.occupied = chunk->occupied;
        // Copy existing attributes wholesale.
        for (size_t a = 0; a < chunk->attrs.size(); ++a) {
          out_chunk.attrs[a] = chunk->attrs[a];
        }
        // Evaluate each definition vectorized over the chunk's cell table,
        // then scatter into the dense chunk layout.
        TablePtr working = cells;
        for (size_t def_i = 0; def_i < defs.size(); ++def_i) {
          const auto& [name, expr] = defs[def_i];
          NEXUS_ASSIGN_OR_RETURN(Column result, EvalExprVector(*expr, *working));
          Column& target = out_chunk.attrs[chunk->attrs.size() + def_i];
          for (size_t i = 0; i < offsets.size(); ++i) {
            NEXUS_RETURN_NOT_OK(target.SetValue(
                offsets[i], result.GetValue(static_cast<int64_t>(i))));
          }
          // Extend the working table so later defs can reference earlier ones.
          std::vector<Field> wf = working->schema()->fields();
          wf.push_back(Field::Attr(name, result.type()));
          std::vector<Column> wc = working->columns();
          wc.push_back(std::move(result));
          NEXUS_ASSIGN_OR_RETURN(SchemaPtr ws, Schema::Make(std::move(wf)));
          NEXUS_ASSIGN_OR_RETURN(working, Table::Make(ws, std::move(wc)));
        }
        results[static_cast<size_t>(ci)] = std::move(out_chunk);
        return Status::OK();
      }();
    }
  });
  for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);
  for (ArrayChunk& chunk : results) {
    NEXUS_RETURN_NOT_OK(out->PutChunk(std::move(chunk)));
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> FilterCells(const NDArray& in, const Expr& predicate) {
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(in.dims(), in.attr_schema()));
  std::vector<const ArrayChunk*> chunks = in.chunks();
  std::vector<ArrayChunk> results(chunks.size());
  std::vector<uint8_t> keep(chunks.size(), 0);
  std::vector<Status> statuses(chunks.size(), Status::OK());
  ParallelFor(static_cast<int64_t>(chunks.size()), 1, [&](int64_t cb, int64_t ce) {
    for (int64_t ci = cb; ci < ce; ++ci) {
      statuses[static_cast<size_t>(ci)] = [&]() -> Status {
        const ArrayChunk* chunk = chunks[static_cast<size_t>(ci)];
        std::vector<int64_t> offsets;
        NEXUS_ASSIGN_OR_RETURN(TablePtr cells, ChunkTable(in, *chunk, &offsets));
        NEXUS_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                               EvalPredicate(predicate, *cells));
        if (sel.empty()) return Status::OK();
        ArrayChunk out_chunk = out->BlankChunk(chunk->grid);
        for (size_t a = 0; a < chunk->attrs.size(); ++a) {
          out_chunk.attrs[a] = chunk->attrs[a];
        }
        for (int64_t s : sel) {
          out_chunk.occupied[static_cast<size_t>(offsets[static_cast<size_t>(s)])] = 1;
        }
        results[static_cast<size_t>(ci)] = std::move(out_chunk);
        keep[static_cast<size_t>(ci)] = 1;
        return Status::OK();
      }();
    }
  });
  for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);
  for (size_t ci = 0; ci < results.size(); ++ci) {
    if (!keep[ci]) continue;
    NEXUS_RETURN_NOT_OK(out->PutChunk(std::move(results[ci])));
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> ProjectAttrs(const NDArray& in,
                                const std::vector<std::string>& attrs) {
  std::vector<Field> fields;
  std::vector<int> attr_idx;
  for (const std::string& name : attrs) {
    NEXUS_ASSIGN_OR_RETURN(int i, in.attr_schema()->FindFieldOrError(name));
    fields.push_back(in.attr_schema()->field(i));
    attr_idx.push_back(i);
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(in.dims(), schema));
  for (const ArrayChunk* chunk : in.chunks()) {
    ArrayChunk out_chunk;
    out_chunk.grid = chunk->grid;
    out_chunk.lo = chunk->lo;
    out_chunk.extent = chunk->extent;
    out_chunk.occupied = chunk->occupied;
    for (int i : attr_idx) {
      out_chunk.attrs.push_back(chunk->attrs[static_cast<size_t>(i)]);
    }
    NEXUS_RETURN_NOT_OK(out->PutChunk(std::move(out_chunk)));
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> Regrid(
    const NDArray& in,
    const std::vector<std::pair<std::string, int64_t>>& factors, AggFunc func) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "ad.Regrid");
  span.AddCounter("cells", in.NumCellsOccupied());
  std::vector<int64_t> factor(static_cast<size_t>(in.num_dims()), 1);
  for (const auto& [name, f] : factors) {
    NEXUS_ASSIGN_OR_RETURN(int d, DimIndexOrError(in, name));
    if (f <= 0) return Status::InvalidArgument("regrid factor must be positive");
    factor[static_cast<size_t>(d)] = f;
  }
  // Output geometry: coordinates bin by floor division.
  std::vector<DimensionSpec> dims;
  for (int d = 0; d < in.num_dims(); ++d) {
    DimensionSpec spec = in.dim(d);
    int64_t f = factor[static_cast<size_t>(d)];
    int64_t lo = FloorDiv(spec.start, f);
    int64_t hi = FloorDiv(spec.end() - 1, f) + 1;
    spec.start = lo;
    spec.length = hi - lo;
    spec.chunk_size = std::max<int64_t>(1, spec.chunk_size);
    dims.push_back(spec);
  }
  // Numeric attributes only.
  std::vector<int> num_attrs;
  std::vector<Field> out_fields;
  for (int a = 0; a < in.attr_schema()->num_fields(); ++a) {
    const Field& f = in.attr_schema()->field(a);
    if (!IsNumeric(f.type)) continue;
    NEXUS_ASSIGN_OR_RETURN(DataType t, AggResultType(func, f.type));
    out_fields.push_back(Field::Attr(f.name, t));
    num_attrs.push_back(a);
  }
  if (num_attrs.empty()) {
    return Status::PlanError("regrid input has no numeric attributes");
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr out_schema, Schema::Make(std::move(out_fields)));
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(std::move(dims), out_schema));
  // Fold per output cell.
  const algebra::FoldSpec fold = algebra::AggFold(func);
  std::map<std::vector<int64_t>, std::vector<algebra::MonoidState>> acc;
  for (const ArrayChunk* chunk : in.chunks()) {
    int64_t volume = chunk->Volume();
    for (int64_t off = 0; off < volume; ++off) {
      if (!chunk->occupied[static_cast<size_t>(off)]) continue;
      std::vector<int64_t> local = chunk->LocalCoords(off);
      std::vector<int64_t> target(local.size());
      for (size_t d = 0; d < local.size(); ++d) {
        target[d] = FloorDiv(chunk->lo[d] + local[d], factor[d]);
      }
      auto [it, inserted] = acc.try_emplace(std::move(target));
      if (inserted) it->second.resize(num_attrs.size());
      for (size_t a = 0; a < num_attrs.size(); ++a) {
        NEXUS_RETURN_NOT_OK(algebra::FoldRow(
            fold, chunk->attrs[static_cast<size_t>(num_attrs[a])], off,
            &it->second[a]));
      }
    }
  }
  std::vector<Value> attrs(num_attrs.size());
  for (const auto& [coords, states] : acc) {
    for (size_t a = 0; a < num_attrs.size(); ++a) {
      attrs[a] = algebra::FinishAgg(
          states[a], func, in.attr_schema()->field(num_attrs[a]).type);
    }
    NEXUS_RETURN_NOT_OK(out->Set(coords, attrs));
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> Window(
    const NDArray& in,
    const std::vector<std::pair<std::string, int64_t>>& radii, AggFunc func) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "ad.Window");
  span.AddCounter("cells", in.NumCellsOccupied());
  std::vector<int64_t> radius(static_cast<size_t>(in.num_dims()), 0);
  for (const auto& [name, r] : radii) {
    NEXUS_ASSIGN_OR_RETURN(int d, DimIndexOrError(in, name));
    if (r < 0) return Status::InvalidArgument("window radius must be >= 0");
    radius[static_cast<size_t>(d)] = r;
  }
  std::vector<int> num_attrs;
  std::vector<Field> out_fields;
  for (int a = 0; a < in.attr_schema()->num_fields(); ++a) {
    const Field& f = in.attr_schema()->field(a);
    if (!IsNumeric(f.type)) continue;
    NEXUS_ASSIGN_OR_RETURN(DataType t, AggResultType(func, f.type));
    out_fields.push_back(Field::Attr(f.name, t));
    num_attrs.push_back(a);
  }
  if (num_attrs.empty()) {
    return Status::PlanError("window input has no numeric attributes");
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr out_schema, Schema::Make(std::move(out_fields)));
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(in.dims(), out_schema));
  const algebra::FoldSpec fold = algebra::AggFold(func);
  std::vector<Value> attrs(num_attrs.size());
  std::vector<int64_t> probe(static_cast<size_t>(in.num_dims()));
  std::vector<int64_t> offset(static_cast<size_t>(in.num_dims()));
  for (const ArrayChunk* chunk : in.chunks()) {
    int64_t volume = chunk->Volume();
    for (int64_t off = 0; off < volume; ++off) {
      if (!chunk->occupied[static_cast<size_t>(off)]) continue;
      std::vector<int64_t> local = chunk->LocalCoords(off);
      std::vector<int64_t> coords(local.size());
      for (size_t d = 0; d < local.size(); ++d) coords[d] = chunk->lo[d] + local[d];
      std::vector<algebra::MonoidState> states(num_attrs.size());
      for (size_t d = 0; d < offset.size(); ++d) offset[d] = -radius[d];
      while (true) {
        for (size_t d = 0; d < probe.size(); ++d) probe[d] = coords[d] + offset[d];
        const ArrayChunk* nb_chunk = nullptr;
        int64_t nb_off = 0;
        if (in.FindCell(probe, &nb_chunk, &nb_off)) {
          for (size_t a = 0; a < num_attrs.size(); ++a) {
            NEXUS_RETURN_NOT_OK(algebra::FoldRow(
                fold, nb_chunk->attrs[static_cast<size_t>(num_attrs[a])],
                nb_off, &states[a]));
          }
        }
        size_t d = 0;
        for (; d < offset.size(); ++d) {
          if (offset[d] < radius[d]) {
            ++offset[d];
            for (size_t e = 0; e < d; ++e) offset[e] = -radius[e];
            break;
          }
        }
        if (d == offset.size()) break;
      }
      for (size_t a = 0; a < num_attrs.size(); ++a) {
        attrs[a] = algebra::FinishAgg(
            states[a], func, in.attr_schema()->field(num_attrs[a]).type);
      }
      NEXUS_RETURN_NOT_OK(out->Set(coords, attrs));
    }
  }
  return Finish(std::move(out));
}

Result<NDArrayPtr> Transpose(const NDArray& in,
                             const std::vector<std::string>& dim_order) {
  if (static_cast<int>(dim_order.size()) != in.num_dims()) {
    return Status::PlanError("transpose order must list every dimension");
  }
  std::vector<int> perm;
  std::vector<DimensionSpec> dims;
  for (const std::string& name : dim_order) {
    NEXUS_ASSIGN_OR_RETURN(int d, DimIndexOrError(in, name));
    if (std::find(perm.begin(), perm.end(), d) != perm.end()) {
      return Status::InvalidArgument(StrCat("duplicate dimension ", name));
    }
    perm.push_back(d);
    dims.push_back(in.dim(d));
  }
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(std::move(dims), in.attr_schema()));
  Status st = Status::OK();
  in.ForEachCell([&](const std::vector<int64_t>& coords, std::vector<Value> attrs) {
    if (!st.ok()) return;
    std::vector<int64_t> permuted(coords.size());
    for (size_t d = 0; d < perm.size(); ++d) {
      permuted[d] = coords[static_cast<size_t>(perm[d])];
    }
    st = out->Set(permuted, attrs);
  });
  NEXUS_RETURN_NOT_OK(st);
  return Finish(std::move(out));
}

Result<NDArrayPtr> ElemWise(const NDArray& a, const NDArray& b, BinaryOp op) {
  if (a.num_dims() != b.num_dims()) {
    return Status::PlanError("elemwise inputs must have matching dimensionality");
  }
  for (int d = 0; d < a.num_dims(); ++d) {
    if (a.dim(d).name != b.dim(d).name) {
      return Status::PlanError("elemwise inputs must share dimension names");
    }
  }
  if (a.attr_schema()->num_fields() != 1 || b.attr_schema()->num_fields() != 1) {
    return Status::PlanError("elemwise inputs must each have one attribute");
  }
  DataType lt = a.attr_schema()->field(0).type;
  DataType rt = b.attr_schema()->field(0).type;
  NEXUS_ASSIGN_OR_RETURN(DataType vt, CommonNumericType(lt, rt));
  if (op == BinaryOp::kDiv) vt = DataType::kFloat64;
  NEXUS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make({Field::Attr(a.attr_schema()->field(0).name, vt)}));
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(a.dims(), schema));
  // Chunk-aligned fast path: identical geometry and float64 payloads on
  // both sides — combine the dense chunk buffers directly, no hashing, no
  // boxing. This is the layout advantage a chunked array engine has over a
  // generic join for cell-wise arithmetic.
  if (a.dims() == b.dims() && vt == DataType::kFloat64 &&
      a.attr_schema()->field(0).type == DataType::kFloat64 &&
      b.attr_schema()->field(0).type == DataType::kFloat64) {
    if (op != BinaryOp::kAdd && op != BinaryOp::kSub && op != BinaryOp::kMul &&
        op != BinaryOp::kDiv) {
      return Status::PlanError("elemwise supports + - * / only");
    }
    // One morsel per chunk; results land in per-chunk slots and are stored
    // sequentially in grid order, so the output is thread-count invariant.
    // b is probed from parallel morsels below — fault its evicted chunks
    // in up front rather than racing the lazy path.
    NEXUS_RETURN_NOT_OK(b.EnsureAllResident());
    std::vector<const ArrayChunk*> chunks = a.chunks();
    std::vector<ArrayChunk> results(chunks.size());
    std::vector<uint8_t> keep(chunks.size(), 0);
    ParallelFor(static_cast<int64_t>(chunks.size()), 1,
                [&](int64_t cbg, int64_t cen) {
      for (int64_t ci = cbg; ci < cen; ++ci) {
        const ArrayChunk* ca = chunks[static_cast<size_t>(ci)];
        const ArrayChunk* cb = b.FindChunk(ca->grid);
        if (cb == nullptr) continue;  // intersection is empty here
        ArrayChunk oc = out->BlankChunk(ca->grid);
        const std::vector<double>& av = ca->attrs[0].doubles();
        const std::vector<double>& bv = cb->attrs[0].doubles();
        std::vector<double> ov(av.size(), 0.0);
        int64_t volume = ca->Volume();
        bool any = false;
        for (int64_t off = 0; off < volume; ++off) {
          size_t o = static_cast<size_t>(off);
          if (!ca->occupied[o] || !cb->occupied[o]) continue;
          if (ca->attrs[0].IsNull(off) || cb->attrs[0].IsNull(off)) {
            oc.occupied[o] = 1;
            oc.attrs[0].SetNull(off);
            any = true;
            continue;
          }
          double v = 0.0;
          switch (op) {
            case BinaryOp::kAdd:
              v = av[o] + bv[o];
              break;
            case BinaryOp::kSub:
              v = av[o] - bv[o];
              break;
            case BinaryOp::kMul:
              v = av[o] * bv[o];
              break;
            default:  // kDiv (other ops rejected above)
              if (bv[o] == 0.0) {
                oc.occupied[o] = 1;
                oc.attrs[0].SetNull(off);
                any = true;
                continue;
              }
              v = av[o] / bv[o];
              break;
          }
          ov[o] = v;
          oc.occupied[o] = 1;
          any = true;
        }
        if (!any) continue;
        // Merge the typed buffer under the already-set validity mask.
        Column merged = Column::FromFloat64(std::move(ov));
        for (int64_t off = 0; off < volume; ++off) {
          if (oc.attrs[0].IsNull(off)) merged.SetNull(off);
        }
        oc.attrs[0] = std::move(merged);
        results[static_cast<size_t>(ci)] = std::move(oc);
        keep[static_cast<size_t>(ci)] = 1;
      }
    });
    for (size_t ci = 0; ci < results.size(); ++ci) {
      if (!keep[ci]) continue;
      NEXUS_RETURN_NOT_OK(out->PutChunk(std::move(results[ci])));
    }
    return Finish(std::move(out));
  }
  Status st = Status::OK();
  a.ForEachCell([&](const std::vector<int64_t>& coords, std::vector<Value> attrs) {
    if (!st.ok()) return;
    const ArrayChunk* b_chunk = nullptr;
    int64_t b_off = 0;
    if (!b.FindCell(coords, &b_chunk, &b_off)) return;  // intersection
    const Column& bc = b_chunk->attrs[0];
    if (attrs[0].is_null() || bc.IsNull(b_off)) {
      st = out->Set(coords, {Value::Null()});
      return;
    }
    double l = attrs[0].AsDouble();
    double r = bc.NumericAt(b_off);
    // Exact integer path when both sides are int64.
    int64_t ri = vt == DataType::kInt64 ? bc.ints()[static_cast<size_t>(b_off)] : 0;
    Value v;
    switch (op) {
      case BinaryOp::kAdd:
        v = vt == DataType::kInt64 ? Value::Int64(attrs[0].AsInt64() + ri)
                                   : Value::Float64(l + r);
        break;
      case BinaryOp::kSub:
        v = vt == DataType::kInt64 ? Value::Int64(attrs[0].AsInt64() - ri)
                                   : Value::Float64(l - r);
        break;
      case BinaryOp::kMul:
        v = vt == DataType::kInt64 ? Value::Int64(attrs[0].AsInt64() * ri)
                                   : Value::Float64(l * r);
        break;
      case BinaryOp::kDiv:
        v = r == 0.0 ? Value::Null() : Value::Float64(l / r);
        break;
      default:
        st = Status::PlanError("elemwise supports + - * / only");
        return;
    }
    st = out->Set(coords, {v});
  });
  NEXUS_RETURN_NOT_OK(st);
  return Finish(std::move(out));
}

}  // namespace arraydb
}  // namespace nexus
