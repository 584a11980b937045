// NDArray: a chunked, sparse-capable n-dimensional array in the SciDB mould —
// the array half of the paper's fused tabular/array model.
//
// An NDArray has named integer dimensions (each with a start, length, and
// chunk size) and a columnar attribute payload per cell. Storage is a grid of
// dense chunks; cells may be absent (the `occupied` mask), which is how
// sparse arrays and table→array reboxing of partial data are represented.
#ifndef NEXUS_TYPES_NDARRAY_H_
#define NEXUS_TYPES_NDARRAY_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/column.h"
#include "types/schema.h"
#include "types/table.h"

namespace nexus {

/// Shape of one array dimension.
struct DimensionSpec {
  std::string name;
  int64_t start = 0;       ///< first valid coordinate (inclusive)
  int64_t length = 0;      ///< number of coordinates
  int64_t chunk_size = 0;  ///< chunk extent along this dimension

  int64_t end() const { return start + length; }  ///< exclusive upper bound

  bool operator==(const DimensionSpec& o) const {
    return name == o.name && start == o.start && length == o.length &&
           chunk_size == o.chunk_size;
  }

  /// "i[0:100:10]" — name[start : start+length : chunk_size].
  std::string ToString() const;
};

/// One dense chunk of an NDArray. Attribute columns and the occupancy mask
/// have length Volume() (the product of clipped extents), addressed in
/// row-major order of local coordinates.
struct ArrayChunk {
  std::vector<int64_t> grid;    ///< position in the chunk grid, per dim
  std::vector<int64_t> lo;      ///< global coordinate of local (0,…,0)
  std::vector<int64_t> extent;  ///< clipped extent per dim
  std::vector<Column> attrs;    ///< one column per attribute field
  std::vector<uint8_t> occupied;

  int64_t Volume() const;
  /// Row-major offset of a local coordinate within this chunk.
  int64_t LocalOffset(const std::vector<int64_t>& local) const;
  /// Inverse of LocalOffset.
  std::vector<int64_t> LocalCoords(int64_t offset) const;
  int64_t OccupiedCount() const;
};

/// Backing store for evicted chunks — the type layer's view of the spill
/// subsystem (the NXB1-backed implementation lives in src/exec/spill, which
/// this layer must not depend on). Implementations own the parked payloads;
/// keys are the array's linearized grid indices. Must be thread-safe.
class ChunkPager {
 public:
  virtual ~ChunkPager() = default;
  /// Parks a chunk's payload under `key`, taking ownership.
  virtual Status PageOut(int64_t key, ArrayChunk chunk) = 0;
  /// Restores the chunk parked under `key` (which stays parked until Drop).
  virtual Result<ArrayChunk> PageIn(int64_t key) = 0;
  /// Discards the parked payload for `key`, if any.
  virtual void Drop(int64_t key) = 0;
  /// Bytes currently parked (serialized size).
  virtual int64_t paged_bytes() const = 0;
};

class NDArray;
using NDArrayPtr = std::shared_ptr<const NDArray>;

/// Chunked n-d array. Build mutably via Make + Set, then share as const.
class NDArray {
 public:
  /// `attr_schema` must contain only non-dimension fields; every dimension
  /// must have positive length and chunk size.
  static Result<std::shared_ptr<NDArray>> Make(std::vector<DimensionSpec> dims,
                                               SchemaPtr attr_schema);

  int num_dims() const { return static_cast<int>(dims_.size()); }
  const DimensionSpec& dim(int i) const { return dims_[static_cast<size_t>(i)]; }
  const std::vector<DimensionSpec>& dims() const { return dims_; }
  int DimIndex(const std::string& name) const;

  const SchemaPtr& attr_schema() const { return attr_schema_; }

  /// Schema of the equivalent table: dimension fields (tagged) followed by
  /// attribute fields.
  SchemaPtr CombinedSchema() const;

  /// Total addressable cells (product of dimension lengths).
  int64_t NumCellsTotal() const;
  /// Occupied (present) cells.
  int64_t NumCellsOccupied() const;
  /// True when every addressable cell is occupied.
  bool IsDense() const { return NumCellsOccupied() == NumCellsTotal(); }

  /// Writes the attribute payload of the cell at `coords` (global
  /// coordinates, one per dimension). Creates the containing chunk on demand.
  Status Set(const std::vector<int64_t>& coords, const std::vector<Value>& attr_values);

  /// True when the cell exists and is occupied.
  bool Has(const std::vector<int64_t>& coords) const;

  /// Locates an occupied cell without boxing: on success sets `chunk` and
  /// the cell's local offset and returns true. False when out of bounds or
  /// the cell is empty. The fast path for neighborhood operators.
  bool FindCell(const std::vector<int64_t>& coords, const ArrayChunk** chunk,
                int64_t* offset) const;

  /// Attribute payload of an occupied cell; errors when out of bounds or
  /// the cell is empty.
  Result<std::vector<Value>> Get(const std::vector<int64_t>& coords) const;

  /// Chunks in deterministic (grid row-major) order.
  std::vector<const ArrayChunk*> chunks() const;

  /// The chunk at a grid position, or null when absent/out of range.
  const ArrayChunk* FindChunk(const std::vector<int64_t>& grid) const;
  std::vector<ArrayChunk*> mutable_chunks();

  /// The chunk containing `coords`, created on demand, plus the cell's local
  /// offset within it. Errors when out of bounds.
  Result<ArrayChunk*> ChunkFor(const std::vector<int64_t>& coords, int64_t* local_offset);

  /// A chunk with no cell occupied at grid position `grid` (which must be
  /// in range), shaped and typed for this array but not inserted. Bulk
  /// builders fill it and hand it to PutChunk.
  ArrayChunk BlankChunk(const std::vector<int64_t>& grid) const;

  /// Inserts a fully-formed chunk at its grid position, replacing any
  /// existing chunk there. The chunk's grid/lo/extent must agree with this
  /// array's geometry (checked); attribute columns must match the attribute
  /// schema in count and length. Engine-level bulk-construction path.
  Status PutChunk(ArrayChunk chunk);

  /// Calls `fn(global_coords, attr_values)` for every occupied cell in
  /// deterministic order.
  void ForEachCell(
      const std::function<void(const std::vector<int64_t>&, std::vector<Value>)>& fn) const;

  /// Flattens into a table: dimension columns (tagged) then attributes, one
  /// row per occupied cell, deterministic order. Built a chunk at a time
  /// from the occupancy masks; errors when an evicted chunk cannot be
  /// paged back in.
  Result<TablePtr> ToTable() const;

  /// Reboxes a table into an array. `dim_names` selects the coordinate
  /// columns (must be int64, non-null); bounds are inferred from the data.
  /// A chunk size <= 0 spans the whole dimension. Duplicate coordinates
  /// error, naming the first repeated row.
  static Result<std::shared_ptr<NDArray>> FromTable(
      const Table& table, const std::vector<std::string>& dim_names,
      const std::vector<int64_t>& chunk_sizes);

  /// Resident bytes plus the serialized size of parked chunks — an
  /// approximation while chunks are evicted, exact otherwise. Never faults
  /// pages in (metering must not defeat eviction).
  int64_t ByteSize() const;
  bool Equals(const NDArray& other) const;
  std::string ToString() const;

  // -- Out-of-core chunk eviction (src/exec/spill supplies the pager) --

  /// Installs the backing store for evicted chunks. Must be set before the
  /// first EvictChunk; replacing the pager while chunks are parked is an
  /// error the caller must avoid.
  void SetPager(std::shared_ptr<ChunkPager> pager) { pager_ = std::move(pager); }
  const std::shared_ptr<ChunkPager>& pager() const { return pager_; }

  /// Parks the chunk at `grid` in the pager and releases its metered
  /// charge. The chunk faults back in transparently (and is re-charged) on
  /// the next access. Errors when no pager is installed.
  Status EvictChunk(const std::vector<int64_t>& grid);

  /// Evicts chunks (highest grid key first) until the resident payload is
  /// within `budget_bytes`. Returns the number of chunks parked.
  Result<int64_t> EvictToBudget(int64_t budget_bytes);

  /// Bytes of chunk payload currently in memory (evicted chunks excluded).
  int64_t ResidentBytes() const;
  /// Chunks currently parked in the pager.
  int64_t EvictedChunks() const {
    return evicted_count_.load(std::memory_order_acquire);
  }

  /// Faults every evicted chunk back in. Engines call this before reading
  /// an array from parallel morsels: the lazy fault path serializes on a
  /// mutex but concurrent readers must not race a mutating fault.
  Status EnsureAllResident() const;

 private:
  NDArray(std::vector<DimensionSpec> dims, SchemaPtr attr_schema);

  /// Linearized grid index of a chunk-grid coordinate.
  int64_t GridKey(const std::vector<int64_t>& grid) const;
  Status CheckBounds(const std::vector<int64_t>& coords) const;
  Status EvictKey(int64_t key);
  /// Faults `key` back in when it is parked; no-op otherwise.
  Status EnsureResident(int64_t key) const;

  std::vector<DimensionSpec> dims_;
  std::vector<int64_t> grid_extent_;  // chunks per dimension
  SchemaPtr attr_schema_;
  // Ordered => deterministic iteration. Mutable: evicted chunks fault back
  // in lazily from const accessors.
  mutable std::map<int64_t, ArrayChunk> chunks_;
  std::shared_ptr<ChunkPager> pager_;
  mutable std::mutex page_mu_;          // serializes fault-in
  mutable std::set<int64_t> evicted_;   // guarded by page_mu_
  mutable std::atomic<int64_t> evicted_count_{0};
};

/// Bulk cell writer for builders that visit cells in (mostly) chunk order.
/// While consecutive cells stay in one chunk the cursor reuses the chunk
/// pointer and computes the local offset arithmetically; any other cell
/// goes through ChunkFor, so chunks are created (and memory-metered) exactly
/// as per-cell Set would. The array must not evict chunks while a cursor is
/// live.
class ChunkCursor {
 public:
  explicit ChunkCursor(NDArray* array);

  /// Locates the cell at global `coords` (num_dims() values), creating its
  /// chunk on demand, and sets `*offset` to its local offset. Errors when
  /// out of bounds.
  Result<ArrayChunk*> Seek(const int64_t* coords, int64_t* offset) {
    if (chunk_ != nullptr) {
      // Still inside the previous cell's chunk: the local offset is plain
      // arithmetic on the chunk's box, no division and no lookup.
      int64_t off = 0;
      size_t d = 0;
      for (; d < coords_.size(); ++d) {
        uint64_t local =
            static_cast<uint64_t>(coords[d]) - static_cast<uint64_t>(chunk_->lo[d]);
        if (local >= static_cast<uint64_t>(chunk_->extent[d])) break;
        off = off * chunk_->extent[d] + static_cast<int64_t>(local);
      }
      if (d == coords_.size()) {
        *offset = off;
        return chunk_;
      }
    }
    return SeekChunk(coords, offset);
  }

 private:
  // Seek's path for a cell outside the previous cell's chunk.
  Result<ArrayChunk*> SeekChunk(const int64_t* coords, int64_t* offset);

  NDArray* array_;
  ArrayChunk* chunk_ = nullptr;   // chunk of the previous cell
  std::vector<int64_t> coords_;  // scratch for ChunkFor
};

}  // namespace nexus

#endif  // NEXUS_TYPES_NDARRAY_H_
