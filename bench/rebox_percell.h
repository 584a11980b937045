// Frozen per-cell table <-> array conversions: the cell-at-a-time loops the
// columnar rebox replaced (boxed Values, one NDArray::Set or
// TableBuilder::AppendRow per cell). They survive only as the oracle the
// rebox property test (tests/rebox_test.cc) checks byte identity against,
// and as the per-cell arms of bench_rebox (E9). Nothing in src/ calls them.
#ifndef NEXUS_BENCH_REBOX_PERCELL_H_
#define NEXUS_BENCH_REBOX_PERCELL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/plan.h"
#include "exec/spill/chunk_pager.h"
#include "linalg/dense.h"
#include "types/ndarray.h"
#include "types/table.h"

namespace nexus {
namespace percell {

/// NDArray::ToTable, one boxed row per occupied cell.
inline Result<TablePtr> ToTable(const NDArray& a) {
  TableBuilder builder(a.CombinedSchema());
  builder.Reserve(a.NumCellsOccupied());
  Status st = Status::OK();
  a.ForEachCell([&](const std::vector<int64_t>& coords, std::vector<Value> attrs) {
    if (!st.ok()) return;
    std::vector<Value> row;
    row.reserve(coords.size() + attrs.size());
    for (int64_t c : coords) row.push_back(Value::Int64(c));
    for (Value& v : attrs) row.push_back(std::move(v));
    st = builder.AppendRow(row);
  });
  NEXUS_RETURN_NOT_OK(st);
  return builder.Finish();
}

/// NDArray::FromTable, one Has + Set per row.
inline Result<std::shared_ptr<NDArray>> FromTable(
    const Table& table, const std::vector<std::string>& dim_names,
    const std::vector<int64_t>& chunk_sizes) {
  if (dim_names.empty()) {
    return Status::InvalidArgument("FromTable: need at least one dimension column");
  }
  if (chunk_sizes.size() != dim_names.size()) {
    return Status::InvalidArgument("FromTable: one chunk size per dimension required");
  }
  std::vector<int> dim_cols;
  for (const std::string& name : dim_names) {
    NEXUS_ASSIGN_OR_RETURN(int idx, table.schema()->FindFieldOrError(name));
    if (table.schema()->field(idx).type != DataType::kInt64) {
      return Status::TypeError(StrCat("dimension column ", name, " must be int64"));
    }
    dim_cols.push_back(idx);
  }
  std::vector<DimensionSpec> dims;
  for (size_t d = 0; d < dim_cols.size(); ++d) {
    const Column& c = table.column(dim_cols[d]);
    if (c.has_nulls()) {
      return Status::InvalidArgument(
          StrCat("dimension column ", dim_names[d], " contains nulls"));
    }
    int64_t lo = 0, hi = 0;
    if (table.num_rows() > 0) {
      auto [mn, mx] = std::minmax_element(c.ints().begin(), c.ints().end());
      lo = *mn;
      hi = *mx;
    }
    DimensionSpec spec;
    spec.name = dim_names[d];
    spec.start = lo;
    spec.length = table.num_rows() > 0 ? hi - lo + 1 : 1;
    spec.chunk_size = chunk_sizes[d] > 0 ? chunk_sizes[d] : spec.length;
    dims.push_back(spec);
  }
  std::vector<Field> attr_fields;
  std::vector<int> attr_cols;
  for (int i = 0; i < table.schema()->num_fields(); ++i) {
    if (std::find(dim_cols.begin(), dim_cols.end(), i) != dim_cols.end()) continue;
    Field f = table.schema()->field(i);
    f.is_dimension = false;
    attr_fields.push_back(f);
    attr_cols.push_back(i);
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr attr_schema, Schema::Make(std::move(attr_fields)));
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> array,
                         NDArray::Make(std::move(dims), std::move(attr_schema)));
  std::vector<int64_t> coords(dim_cols.size());
  std::vector<Value> attrs(attr_cols.size());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t d = 0; d < dim_cols.size(); ++d) {
      coords[d] = table.column(dim_cols[d]).ints()[static_cast<size_t>(r)];
    }
    if (array->Has(coords)) {
      return Status::InvalidArgument(
          StrCat("FromTable: duplicate coordinates at row ", r));
    }
    for (size_t a = 0; a < attr_cols.size(); ++a) {
      attrs[a] = table.At(r, attr_cols[a]);
    }
    NEXUS_RETURN_NOT_OK(array->Set(coords, attrs));
  }
  return array;
}

/// linalg::ToNDArray, one Set per kept matrix entry.
inline Result<NDArrayPtr> ToNDArray(const linalg::DenseMatrix& m,
                                    const std::string& row_name,
                                    const std::string& col_name,
                                    const std::string& attr, int64_t row_start,
                                    int64_t col_start, int64_t chunk_size,
                                    bool drop_zeros) {
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr attrs,
                         Schema::Make({Field::Attr(attr, DataType::kFloat64)}));
  NEXUS_ASSIGN_OR_RETURN(
      std::shared_ptr<NDArray> out,
      NDArray::Make({DimensionSpec{row_name, row_start, m.rows(), chunk_size},
                     DimensionSpec{col_name, col_start, m.cols(), chunk_size}},
                    attrs));
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      double v = m.At(r, c);
      if (drop_zeros && v == 0.0) continue;
      NEXUS_RETURN_NOT_OK(
          out->Set({row_start + r, col_start + c}, {Value::Float64(v)}));
    }
  }
  return NDArrayPtr(std::move(out));
}

/// arraydb::Slice, one GetValue + Set per cell inside the box.
inline Result<NDArrayPtr> Slice(const NDArray& in, const std::vector<DimRange>& ranges) {
  const size_t nd = static_cast<size_t>(in.num_dims());
  std::vector<int64_t> lo(nd), hi(nd);
  for (size_t d = 0; d < nd; ++d) {
    lo[d] = in.dim(static_cast<int>(d)).start;
    hi[d] = in.dim(static_cast<int>(d)).end();
  }
  for (const DimRange& r : ranges) {
    int d = in.DimIndex(r.dim);
    if (d < 0) return Status::NotFound(StrCat("array has no dimension '", r.dim, "'"));
    lo[static_cast<size_t>(d)] = std::max(lo[static_cast<size_t>(d)], r.lo);
    hi[static_cast<size_t>(d)] = std::min(hi[static_cast<size_t>(d)], r.hi);
  }
  std::vector<DimensionSpec> dims;
  bool empty = false;
  for (size_t d = 0; d < nd; ++d) {
    DimensionSpec spec = in.dim(static_cast<int>(d));
    spec.start = lo[d];
    spec.length = hi[d] - lo[d];
    if (spec.length <= 0) {
      spec.start = in.dim(static_cast<int>(d)).start;
      spec.length = 1;
      empty = true;
    }
    dims.push_back(spec);
  }
  NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> out,
                         NDArray::Make(std::move(dims), in.attr_schema()));
  if (!empty) {
    for (const ArrayChunk* chunk : in.chunks()) {
      int64_t volume = chunk->Volume();
      std::vector<Value> attrs(chunk->attrs.size());
      for (int64_t off = 0; off < volume; ++off) {
        if (!chunk->occupied[static_cast<size_t>(off)]) continue;
        std::vector<int64_t> local = chunk->LocalCoords(off);
        std::vector<int64_t> coords(local.size());
        bool inside = true;
        for (size_t d = 0; d < local.size(); ++d) {
          coords[d] = chunk->lo[d] + local[d];
          if (coords[d] < lo[d] || coords[d] >= hi[d]) {
            inside = false;
            break;
          }
        }
        if (!inside) continue;
        for (size_t a = 0; a < attrs.size(); ++a) {
          attrs[a] = chunk->attrs[a].GetValue(off);
        }
        NEXUS_RETURN_NOT_OK(out->Set(coords, attrs));
      }
    }
  }
  NEXUS_RETURN_NOT_OK(spill::ShedArray(out, "array").status());
  return NDArrayPtr(std::move(out));
}

}  // namespace percell
}  // namespace nexus

#endif  // NEXUS_BENCH_REBOX_PERCELL_H_
