#include "types/ndarray.h"

#include <algorithm>
#include <functional>

#include "common/memory.h"
#include "common/str_util.h"

namespace nexus {

std::string DimensionSpec::ToString() const {
  return StrCat(name, "[", start, ":", end(), ":", chunk_size, "]");
}

int64_t ArrayChunk::Volume() const {
  int64_t v = 1;
  for (int64_t e : extent) v *= e;
  return v;
}

namespace {

/// Charges a freshly materialized chunk to the calling thread's memory
/// meter, if one is installed (service-managed queries only).
void ChargeChunk(const ArrayChunk& chunk) {
  if (CurrentMemoryMeter() == nullptr) return;
  int64_t bytes = static_cast<int64_t>(chunk.occupied.size());
  for (const Column& c : chunk.attrs) bytes += c.ByteSize();
  ChargeAllocation(bytes);
}

/// Chunks along one dimension: ceil(length / chunk_size), overflow-free.
int64_t ChunksAlong(const DimensionSpec& d) {
  return d.length / d.chunk_size + (d.length % d.chunk_size != 0);
}

int64_t ChunkBytes(const ArrayChunk& chunk) {
  int64_t bytes = static_cast<int64_t>(chunk.occupied.size());
  for (const Column& c : chunk.attrs) bytes += c.ByteSize();
  return bytes;
}

}  // namespace

int64_t ArrayChunk::LocalOffset(const std::vector<int64_t>& local) const {
  int64_t off = 0;
  for (size_t d = 0; d < extent.size(); ++d) {
    off = off * extent[d] + local[d];
  }
  return off;
}

std::vector<int64_t> ArrayChunk::LocalCoords(int64_t offset) const {
  std::vector<int64_t> local(extent.size());
  for (size_t d = extent.size(); d-- > 0;) {
    local[d] = offset % extent[d];
    offset /= extent[d];
  }
  return local;
}

int64_t ArrayChunk::OccupiedCount() const {
  int64_t n = 0;
  for (uint8_t o : occupied) n += (o != 0);
  return n;
}

NDArray::NDArray(std::vector<DimensionSpec> dims, SchemaPtr attr_schema)
    : dims_(std::move(dims)), attr_schema_(std::move(attr_schema)) {
  grid_extent_.reserve(dims_.size());
  for (const DimensionSpec& d : dims_) {
    grid_extent_.push_back(ChunksAlong(d));
  }
}

Result<std::shared_ptr<NDArray>> NDArray::Make(std::vector<DimensionSpec> dims,
                                               SchemaPtr attr_schema) {
  if (dims.empty()) return Status::InvalidArgument("NDArray needs >=1 dimension");
  int64_t grid_cells = 1;
  for (const DimensionSpec& d : dims) {
    if (d.name.empty()) return Status::InvalidArgument("dimension with empty name");
    if (d.length <= 0 || d.chunk_size <= 0) {
      return Status::InvalidArgument(
          StrCat("dimension ", d.name, " must have positive length and chunk size"));
    }
    // Grid keys and exclusive ends are int64 arithmetic; refuse geometry
    // that would overflow them.
    int64_t end = 0;
    if (__builtin_add_overflow(d.start, d.length, &end) ||
        __builtin_mul_overflow(grid_cells, ChunksAlong(d), &grid_cells)) {
      return Status::InvalidArgument(
          StrCat("dimension ", d.name, " overflows the int64 coordinate space"));
    }
  }
  if (attr_schema == nullptr) {
    return Status::InvalidArgument("NDArray needs an attribute schema");
  }
  for (const Field& f : attr_schema->fields()) {
    if (f.is_dimension) {
      return Status::InvalidArgument(
          StrCat("attribute schema may not contain dimension field ", f.name));
    }
    for (const DimensionSpec& d : dims) {
      if (d.name == f.name) {
        return Status::InvalidArgument(
            StrCat("attribute ", f.name, " collides with a dimension name"));
      }
    }
  }
  return std::shared_ptr<NDArray>(
      new NDArray(std::move(dims), std::move(attr_schema)));
}

int NDArray::DimIndex(const std::string& name) const {
  for (int i = 0; i < num_dims(); ++i) {
    if (dims_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

SchemaPtr NDArray::CombinedSchema() const {
  std::vector<Field> fields;
  fields.reserve(dims_.size() + static_cast<size_t>(attr_schema_->num_fields()));
  for (const DimensionSpec& d : dims_) fields.push_back(Field::Dim(d.name));
  for (const Field& f : attr_schema_->fields()) fields.push_back(f);
  return std::make_shared<const Schema>(std::move(fields));
}

int64_t NDArray::NumCellsTotal() const {
  int64_t n = 1;
  for (const DimensionSpec& d : dims_) n *= d.length;
  return n;
}

int64_t NDArray::NumCellsOccupied() const {
  (void)EnsureAllResident();
  int64_t n = 0;
  for (const auto& [key, chunk] : chunks_) n += chunk.OccupiedCount();
  return n;
}

int64_t NDArray::GridKey(const std::vector<int64_t>& grid) const {
  int64_t key = 0;
  for (size_t d = 0; d < grid.size(); ++d) key = key * grid_extent_[d] + grid[d];
  return key;
}

Status NDArray::CheckBounds(const std::vector<int64_t>& coords) const {
  if (static_cast<int>(coords.size()) != num_dims()) {
    return Status::IndexError(StrCat("got ", coords.size(), " coordinates for ",
                                     num_dims(), "-d array"));
  }
  for (size_t d = 0; d < coords.size(); ++d) {
    const DimensionSpec& spec = dims_[d];
    if (coords[d] < spec.start || coords[d] >= spec.end()) {
      return Status::IndexError(StrCat("coordinate ", coords[d],
                                       " out of bounds for ", spec.ToString()));
    }
  }
  return Status::OK();
}

Status NDArray::EnsureResident(int64_t key) const {
  if (evicted_count_.load(std::memory_order_acquire) == 0) return Status::OK();
  std::lock_guard<std::mutex> lock(page_mu_);
  if (evicted_.count(key) == 0) return Status::OK();
  NEXUS_ASSIGN_OR_RETURN(ArrayChunk chunk, pager_->PageIn(key));
  ChargeChunk(chunk);  // faulting back in re-materializes the payload
  chunks_.emplace(key, std::move(chunk));
  evicted_.erase(key);
  evicted_count_.store(static_cast<int64_t>(evicted_.size()),
                       std::memory_order_release);
  pager_->Drop(key);
  return Status::OK();
}

Status NDArray::EnsureAllResident() const {
  while (evicted_count_.load(std::memory_order_acquire) > 0) {
    int64_t key;
    {
      std::lock_guard<std::mutex> lock(page_mu_);
      if (evicted_.empty()) break;
      key = *evicted_.begin();
    }
    NEXUS_RETURN_NOT_OK(EnsureResident(key));
  }
  return Status::OK();
}

Status NDArray::EvictKey(int64_t key) {
  if (pager_ == nullptr) {
    return Status::InvalidArgument("EvictChunk: no chunk pager installed");
  }
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return Status::NotFound("chunk is not resident");
  int64_t bytes = ChunkBytes(it->second);
  NEXUS_RETURN_NOT_OK(pager_->PageOut(key, std::move(it->second)));
  chunks_.erase(it);
  {
    std::lock_guard<std::mutex> lock(page_mu_);
    evicted_.insert(key);
    evicted_count_.store(static_cast<int64_t>(evicted_.size()),
                         std::memory_order_release);
  }
  ReleaseAllocation(bytes);  // the payload is on disk, not resident
  return Status::OK();
}

Status NDArray::EvictChunk(const std::vector<int64_t>& grid) {
  if (static_cast<int>(grid.size()) != num_dims()) {
    return Status::InvalidArgument("EvictChunk: wrong dimensionality");
  }
  for (size_t d = 0; d < grid.size(); ++d) {
    if (grid[d] < 0 || grid[d] >= grid_extent_[d]) {
      return Status::IndexError("EvictChunk: grid position out of range");
    }
  }
  return EvictKey(GridKey(grid));
}

Result<int64_t> NDArray::EvictToBudget(int64_t budget_bytes) {
  if (pager_ == nullptr) {
    return Status::InvalidArgument("EvictToBudget: no chunk pager installed");
  }
  std::vector<int64_t> keys;
  keys.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) keys.push_back(key);
  int64_t resident = ResidentBytes();
  int64_t evicted = 0;
  // Highest grid key first: sequential consumers revisit low coordinates
  // soonest, so the tail of the grid is the coldest payload.
  for (auto rit = keys.rbegin(); rit != keys.rend(); ++rit) {
    if (resident <= budget_bytes) break;
    int64_t bytes = ChunkBytes(chunks_.at(*rit));
    NEXUS_RETURN_NOT_OK(EvictKey(*rit));
    resident -= bytes;
    ++evicted;
  }
  return evicted;
}

int64_t NDArray::ResidentBytes() const {
  int64_t bytes = 0;
  for (const auto& [key, chunk] : chunks_) bytes += ChunkBytes(chunk);
  return bytes;
}

Result<ArrayChunk*> NDArray::ChunkFor(const std::vector<int64_t>& coords,
                                      int64_t* local_offset) {
  NEXUS_RETURN_NOT_OK(CheckBounds(coords));
  int64_t key = 0;
  for (size_t d = 0; d < coords.size(); ++d) {
    key = key * grid_extent_[d] + (coords[d] - dims_[d].start) / dims_[d].chunk_size;
  }
  NEXUS_RETURN_NOT_OK(EnsureResident(key));
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    std::vector<int64_t> grid(coords.size());
    for (size_t d = 0; d < coords.size(); ++d) {
      grid[d] = (coords[d] - dims_[d].start) / dims_[d].chunk_size;
    }
    ArrayChunk chunk = BlankChunk(grid);
    ChargeChunk(chunk);
    it = chunks_.emplace(key, std::move(chunk)).first;
  }
  const ArrayChunk& chunk = it->second;
  int64_t off = 0;
  for (size_t d = 0; d < coords.size(); ++d) {
    off = off * chunk.extent[d] + (coords[d] - chunk.lo[d]);
  }
  *local_offset = off;
  return &it->second;
}

ArrayChunk NDArray::BlankChunk(const std::vector<int64_t>& grid) const {
  ArrayChunk chunk;
  chunk.grid = grid;
  chunk.lo.resize(grid.size());
  chunk.extent.resize(grid.size());
  for (size_t d = 0; d < grid.size(); ++d) {
    chunk.lo[d] = dims_[d].start + grid[d] * dims_[d].chunk_size;
    chunk.extent[d] = std::min(dims_[d].chunk_size, dims_[d].end() - chunk.lo[d]);
  }
  int64_t volume = chunk.Volume();
  chunk.attrs.reserve(static_cast<size_t>(attr_schema_->num_fields()));
  for (const Field& f : attr_schema_->fields()) {
    chunk.attrs.push_back(Column::Filled(f.type, volume));
  }
  chunk.occupied.assign(static_cast<size_t>(volume), 0);
  return chunk;
}

ChunkCursor::ChunkCursor(NDArray* array)
    : array_(array), coords_(static_cast<size_t>(array->num_dims())) {}

Result<ArrayChunk*> ChunkCursor::SeekChunk(const int64_t* coords, int64_t* offset) {
  coords_.assign(coords, coords + coords_.size());
  chunk_ = nullptr;
  NEXUS_ASSIGN_OR_RETURN(chunk_, array_->ChunkFor(coords_, offset));
  return chunk_;
}

Status NDArray::PutChunk(ArrayChunk chunk) {
  if (static_cast<int>(chunk.grid.size()) != num_dims()) {
    return Status::InvalidArgument("PutChunk: wrong dimensionality");
  }
  int64_t volume = chunk.Volume();
  for (size_t d = 0; d < chunk.grid.size(); ++d) {
    if (chunk.grid[d] < 0 || chunk.grid[d] >= grid_extent_[d]) {
      return Status::IndexError("PutChunk: grid position out of range");
    }
    int64_t want_lo = dims_[d].start + chunk.grid[d] * dims_[d].chunk_size;
    int64_t want_extent = std::min(dims_[d].chunk_size, dims_[d].end() - want_lo);
    if (chunk.lo[d] != want_lo || chunk.extent[d] != want_extent) {
      return Status::InvalidArgument("PutChunk: chunk geometry mismatch");
    }
  }
  if (static_cast<int>(chunk.attrs.size()) != attr_schema_->num_fields() ||
      static_cast<int64_t>(chunk.occupied.size()) != volume) {
    return Status::InvalidArgument("PutChunk: payload shape mismatch");
  }
  for (int a = 0; a < attr_schema_->num_fields(); ++a) {
    if (chunk.attrs[static_cast<size_t>(a)].type() != attr_schema_->field(a).type ||
        chunk.attrs[static_cast<size_t>(a)].size() != volume) {
      return Status::InvalidArgument("PutChunk: attribute column mismatch");
    }
  }
  ChargeChunk(chunk);
  int64_t key = GridKey(chunk.grid);
  if (evicted_count_.load(std::memory_order_acquire) > 0) {
    // Replacing a parked chunk: the new payload supersedes the disk copy.
    std::lock_guard<std::mutex> lock(page_mu_);
    if (evicted_.erase(key) > 0) {
      pager_->Drop(key);
      evicted_count_.store(static_cast<int64_t>(evicted_.size()),
                           std::memory_order_release);
    }
  }
  chunks_[key] = std::move(chunk);
  return Status::OK();
}

Status NDArray::Set(const std::vector<int64_t>& coords,
                    const std::vector<Value>& attr_values) {
  if (static_cast<int>(attr_values.size()) != attr_schema_->num_fields()) {
    return Status::InvalidArgument(
        StrCat("Set: ", attr_values.size(), " attribute values for schema ",
               attr_schema_->ToString()));
  }
  int64_t offset = 0;
  NEXUS_ASSIGN_OR_RETURN(ArrayChunk * chunk, ChunkFor(coords, &offset));
  for (size_t a = 0; a < attr_values.size(); ++a) {
    NEXUS_RETURN_NOT_OK(chunk->attrs[a].SetValue(offset, attr_values[a]));
  }
  chunk->occupied[static_cast<size_t>(offset)] = 1;
  return Status::OK();
}

bool NDArray::FindCell(const std::vector<int64_t>& coords,
                       const ArrayChunk** chunk, int64_t* offset) const {
  if (static_cast<int>(coords.size()) != num_dims()) return false;
  std::vector<int64_t> grid(coords.size()), local(coords.size());
  for (size_t d = 0; d < coords.size(); ++d) {
    const DimensionSpec& spec = dims_[d];
    if (coords[d] < spec.start || coords[d] >= spec.end()) return false;
    int64_t rel = coords[d] - spec.start;
    grid[d] = rel / spec.chunk_size;
    local[d] = rel % spec.chunk_size;
  }
  int64_t key = GridKey(grid);
  if (!EnsureResident(key).ok()) return false;
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return false;
  int64_t off = it->second.LocalOffset(local);
  if (!it->second.occupied[static_cast<size_t>(off)]) return false;
  *chunk = &it->second;
  *offset = off;
  return true;
}

bool NDArray::Has(const std::vector<int64_t>& coords) const {
  if (!CheckBounds(coords).ok()) return false;
  std::vector<int64_t> grid(coords.size()), local(coords.size());
  for (size_t d = 0; d < coords.size(); ++d) {
    int64_t rel = coords[d] - dims_[d].start;
    grid[d] = rel / dims_[d].chunk_size;
    local[d] = rel % dims_[d].chunk_size;
  }
  int64_t key = GridKey(grid);
  if (!EnsureResident(key).ok()) return false;
  auto it = chunks_.find(key);
  if (it == chunks_.end()) return false;
  return it->second.occupied[static_cast<size_t>(it->second.LocalOffset(local))] != 0;
}

Result<std::vector<Value>> NDArray::Get(const std::vector<int64_t>& coords) const {
  NEXUS_RETURN_NOT_OK(CheckBounds(coords));
  std::vector<int64_t> grid(coords.size()), local(coords.size());
  for (size_t d = 0; d < coords.size(); ++d) {
    int64_t rel = coords[d] - dims_[d].start;
    grid[d] = rel / dims_[d].chunk_size;
    local[d] = rel % dims_[d].chunk_size;
  }
  int64_t key = GridKey(grid);
  NEXUS_RETURN_NOT_OK(EnsureResident(key));
  auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return Status::NotFound("cell is empty");
  }
  const ArrayChunk& chunk = it->second;
  int64_t off = chunk.LocalOffset(local);
  if (!chunk.occupied[static_cast<size_t>(off)]) {
    return Status::NotFound("cell is empty");
  }
  std::vector<Value> out;
  out.reserve(chunk.attrs.size());
  for (const Column& c : chunk.attrs) out.push_back(c.GetValue(off));
  return out;
}

std::vector<const ArrayChunk*> NDArray::chunks() const {
  (void)EnsureAllResident();
  std::vector<const ArrayChunk*> out;
  out.reserve(chunks_.size());
  for (const auto& [key, chunk] : chunks_) out.push_back(&chunk);
  return out;
}

const ArrayChunk* NDArray::FindChunk(const std::vector<int64_t>& grid) const {
  if (static_cast<int>(grid.size()) != num_dims()) return nullptr;
  for (size_t d = 0; d < grid.size(); ++d) {
    if (grid[d] < 0 || grid[d] >= grid_extent_[d]) return nullptr;
  }
  int64_t key = GridKey(grid);
  if (!EnsureResident(key).ok()) return nullptr;
  auto it = chunks_.find(key);
  return it == chunks_.end() ? nullptr : &it->second;
}

std::vector<ArrayChunk*> NDArray::mutable_chunks() {
  (void)EnsureAllResident();
  std::vector<ArrayChunk*> out;
  out.reserve(chunks_.size());
  for (auto& [key, chunk] : chunks_) out.push_back(&chunk);
  return out;
}

void NDArray::ForEachCell(
    const std::function<void(const std::vector<int64_t>&, std::vector<Value>)>& fn)
    const {
  (void)EnsureAllResident();
  for (const auto& [key, chunk] : chunks_) {
    int64_t volume = chunk.Volume();
    for (int64_t off = 0; off < volume; ++off) {
      if (!chunk.occupied[static_cast<size_t>(off)]) continue;
      std::vector<int64_t> local = chunk.LocalCoords(off);
      std::vector<int64_t> global(local.size());
      for (size_t d = 0; d < local.size(); ++d) global[d] = chunk.lo[d] + local[d];
      std::vector<Value> attrs;
      attrs.reserve(chunk.attrs.size());
      for (const Column& c : chunk.attrs) attrs.push_back(c.GetValue(off));
      fn(global, std::move(attrs));
    }
  }
}

Result<TablePtr> NDArray::ToTable() const {
  NEXUS_RETURN_NOT_OK(EnsureAllResident());
  // One pass per chunk over the occupancy mask, a row of the last dimension
  // at a time, with an odometer over the leading dimensions. It emits the
  // dimension columns and records the occupied offsets, which then gather
  // each attribute column in bulk.
  const size_t ndims = dims_.size();
  const size_t last = ndims - 1;  // Make guarantees >= 1 dimension
  std::vector<int64_t> counts;
  counts.reserve(chunks_.size());
  int64_t rows = 0;
  for (const auto& [key, chunk] : chunks_) {
    counts.push_back(chunk.OccupiedCount());
    rows += counts.back();
  }
  // Every cell is written at the next output slot, which advances only when
  // the cell is occupied (branch-free on sparse masks), so each buffer
  // carries one spare slot until the end.
  std::vector<std::vector<int64_t>> occupied(chunks_.size());
  std::vector<std::vector<int64_t>> coord_cols(
      ndims, std::vector<int64_t>(static_cast<size_t>(rows) + 1));
  std::vector<int64_t*> next_coord;  // per dimension, the next output slot
  for (std::vector<int64_t>& c : coord_cols) next_coord.push_back(c.data());
  size_t ci = 0;
  for (const auto& [key, chunk] : chunks_) {
    std::vector<int64_t>& offs = occupied[ci];
    offs.resize(static_cast<size_t>(counts[ci++]) + 1);
    int64_t* next_off = offs.data();
    const uint8_t* occ = chunk.occupied.data();
    const int64_t volume = chunk.Volume(), inner = chunk.extent[last];
    std::vector<int64_t> row = chunk.lo;  // global coordinates of the row start
    for (int64_t base = 0; base < volume; base += inner) {
      const int64_t row_last = row[last];
      int64_t* last_col = next_coord[last];
      for (int64_t j = 0; j < inner; ++j) {
        const int64_t hit = occ[base + j] != 0;
        *next_off = base + j;
        next_off += hit;
        *last_col = row_last + j;
        last_col += hit;
      }
      // The leading coordinates are constant along the row.
      const int64_t hits = last_col - next_coord[last];
      next_coord[last] = last_col;
      for (size_t d = 0; d < last; ++d) {
        next_coord[d] = std::fill_n(next_coord[d], hits, row[d]);
      }
      for (size_t d = last; d-- > 0;) {
        if (++row[d] < chunk.lo[d] + chunk.extent[d]) break;
        row[d] = chunk.lo[d];
      }
    }
    offs.pop_back();
  }
  for (std::vector<int64_t>& c : coord_cols) c.pop_back();
  std::vector<Column> cols;
  cols.reserve(ndims + static_cast<size_t>(attr_schema_->num_fields()));
  for (std::vector<int64_t>& c : coord_cols) cols.push_back(Column::FromInt64(std::move(c)));
  for (int a = 0; a < attr_schema_->num_fields(); ++a) {
    Column col(attr_schema_->field(a).type);
    col.Reserve(rows);
    ci = 0;
    for (const auto& [key, chunk] : chunks_) {
      col.AppendRows(chunk.attrs[static_cast<size_t>(a)], occupied[ci++]);
    }
    cols.push_back(std::move(col));
  }
  return Table::Make(CombinedSchema(), std::move(cols));
}

Result<std::shared_ptr<NDArray>> NDArray::FromTable(
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
  // Infer bounds.
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
    spec.length = 1;
    if (__builtin_sub_overflow(hi, lo, &spec.length) ||
        __builtin_add_overflow(spec.length, 1, &spec.length)) {
      return Status::InvalidArgument(
          StrCat("dimension column ", dim_names[d], " spans more than int64"));
    }
    spec.chunk_size = chunk_sizes[d] > 0 ? chunk_sizes[d] : spec.length;
    dims.push_back(spec);
  }
  // Attribute schema = remaining fields, dimension tags stripped.
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
  // One pass over the rows, writing typed values straight from the source
  // columns into the chunk each row lands in.
  std::vector<const int64_t*> coord_data;
  for (int c : dim_cols) coord_data.push_back(table.column(c).ints().data());
  std::vector<int64_t> coords(dim_cols.size());
  ChunkCursor cursor(array.get());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t d = 0; d < coords.size(); ++d) coords[d] = coord_data[d][r];
    int64_t off = 0;
    NEXUS_ASSIGN_OR_RETURN(ArrayChunk * chunk, cursor.Seek(coords.data(), &off));
    uint8_t& occupied = chunk->occupied[static_cast<size_t>(off)];
    if (occupied) {
      return Status::InvalidArgument(
          StrCat("FromTable: duplicate coordinates at row ", r));
    }
    for (size_t a = 0; a < attr_cols.size(); ++a) {
      chunk->attrs[a].SetFrom(off, table.column(attr_cols[a]), r);
    }
    occupied = 1;
  }
  return array;
}

int64_t NDArray::ByteSize() const {
  int64_t bytes = ResidentBytes();
  if (pager_ != nullptr) bytes += pager_->paged_bytes();
  return bytes;
}

bool NDArray::Equals(const NDArray& other) const {
  if (dims_ != other.dims_ || !attr_schema_->Equals(*other.attr_schema_)) {
    return false;
  }
  if (NumCellsOccupied() != other.NumCellsOccupied()) return false;
  bool equal = true;
  ForEachCell([&](const std::vector<int64_t>& coords, std::vector<Value> attrs) {
    if (!equal) return;
    auto theirs = other.Get(coords);
    if (!theirs.ok()) {
      equal = false;
      return;
    }
    const std::vector<Value>& tv = theirs.ValueOrDie();
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a] != tv[a]) {
        equal = false;
        return;
      }
    }
  });
  return equal;
}

std::string NDArray::ToString() const {
  std::vector<std::string> dim_strs;
  dim_strs.reserve(dims_.size());
  for (const DimensionSpec& d : dims_) dim_strs.push_back(d.ToString());
  return StrCat("array<", Join(dim_strs, ", "), "> ", attr_schema_->ToString(),
                " [", NumCellsOccupied(), "/", NumCellsTotal(), " cells]");
}

}  // namespace nexus
