// Out-of-core execution: Grace-style partition-spill-merge on NXB1.
//
// The scalability desideratum — "as fast as the hardware allows" across
// data sizes — ends today exactly at the memory budget: a hash join or
// aggregation whose working set crosses its tenant's budget is killed by
// the MemoryGovernor. This subsystem turns that cliff into a slope. One
// primitive serves every consumer (LaraDB's minimalist-kernel argument):
//
//   * SpillManager owns the scratch directory and hands out RAII
//     SpillFiles — length-prefixed NXB1 frames (the PR 4 wire serializer
//     doing double duty as the spill format), unlinked on destruction, so
//     completion, cancellation, failover, and shutdown all reap scratch
//     through ordinary stack unwinding.
//   * PartitionedSpiller is the Grace hash partitioner: co-keyed inputs
//     split into pow-2 partitions by their key hashes, written in
//     ascending-row frames, re-partitioned recursively (salted hash) when
//     a skewed partition still exceeds the budget, and handed to a leaf
//     callback one partition at a time.
//   * The policy layer decides *when*, and asks only the query's installed
//     MemoryMeter: an operator spills when its estimated working set
//     crosses the meter's SpillBudget() — a governed query's is its
//     tenant's TenantOptions::spill_budget_bytes — or when the governor
//     flips the meter's ask-to-spill flag instead of killing. A query with
//     no meter, or a meter without a budget, never spills. There is no
//     process-wide switch, so concurrent queries never see each other's
//     policy.
//
// Determinism contract: spilling may never change results. Consumers
// (relational::HashJoin, algebra::Join and the grouped fold under
// algebra::Normalize / LowerAggregate) carry original row indices and key
// hashes through the partitions and restore the exact in-memory order on
// merge, so output is byte-identical for any thread count, any budget, and
// any recursion depth — asserted by property test P9 and the E18 bench.
#ifndef NEXUS_EXEC_SPILL_SPILL_H_
#define NEXUS_EXEC_SPILL_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/result.h"
#include "common/status.h"
#include "types/table.h"

namespace nexus {
namespace spill {

// ---------------------------------------------------------------------------
// Policy.
// ---------------------------------------------------------------------------

/// The calling query's in-memory working-set budget in bytes: the installed
/// meter's SpillBudget(), or 0 (none) without a meter.
int64_t SpillBudgetBytes();

/// The one question operators ask: should a working set of an estimated
/// `estimated_bytes` be partitioned to disk? True when the installed meter
/// has a budget the estimate crosses, or when the governor has asked this
/// query to shed memory (MemoryMeter::SpillRequested).
bool ShouldSpill(int64_t estimated_bytes);

/// Releases a dropped table's metered charge. The spill path is net-
/// accounted: every collection it materializes (partition loads, frame
/// tables, merge buffers) is released when dropped, so a cooperating query
/// sheds charge instead of accumulating it (see common/memory.h).
void ReleaseTable(const TablePtr& table);

// ---------------------------------------------------------------------------
// Scratch files.
// ---------------------------------------------------------------------------

class SpillManager;

/// One scratch file of length-prefixed NXB1 table frames. Created only via
/// SpillManager::Create; the destructor closes and unlinks the file and
/// deregisters it, so RAII covers every exit path (completion, cancel,
/// deadline, failover, shutdown).
class SpillFile {
 public:
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one frame: [u64 length][NXB1 dataset bytes]. Rows keep their
  /// append order on read-back.
  Status Append(const TablePtr& table);

  /// Streams every frame back in append order.
  Status ForEachFrame(const std::function<Status(TablePtr)>& fn) const;

  /// Reads the whole file back as one table (frames concatenated).
  /// `schema` supplies the shape when the file holds no frames.
  Result<TablePtr> ReadAll(const SchemaPtr& schema) const;

  int64_t bytes_written() const { return bytes_written_; }
  int64_t frames() const { return frames_; }
  int64_t rows() const { return rows_; }
  const std::string& path() const { return path_; }

 private:
  friend class SpillManager;
  SpillFile(SpillManager* manager, std::string path, std::FILE* file);

  SpillManager* manager_;
  std::string path_;
  std::FILE* file_;
  int64_t bytes_written_ = 0;
  int64_t frames_ = 0;
  int64_t rows_ = 0;
};

/// Process-global scratch-file registry and directory owner. Thread-safe.
class SpillManager {
 public:
  static SpillManager& Global();

  /// Creates a fresh scratch file; `tag` labels it for debugging. The file
  /// lives in the scratch directory (NEXUS_SPILL_DIR, default a pid-scoped
  /// directory under the system temp root) and is unlinked when the
  /// returned handle dies.
  Result<std::unique_ptr<SpillFile>> Create(const std::string& tag);

  /// Files currently open (should be 0 whenever no query is mid-spill —
  /// the leak-regression invariant asserted by fault_test).
  int64_t live_files() const;
  /// Bytes currently held by live scratch files.
  int64_t live_bytes() const { return live_bytes_.load(std::memory_order_relaxed); }
  /// Cumulative files / bytes ever spilled by this process.
  int64_t files_created() const { return files_created_.load(std::memory_order_relaxed); }
  int64_t bytes_spilled() const { return bytes_spilled_.load(std::memory_order_relaxed); }

  /// Belt-and-braces orphan reaper: deletes every file this process wrote
  /// into the scratch directory (by name prefix) and removes the directory
  /// when it is left empty. Live handles stay valid (open descriptors);
  /// called from service shutdown and CI teardown. Returns files removed.
  int64_t Sweep();

  /// The scratch directory path (created lazily on first use).
  std::string scratch_dir();

 private:
  friend class SpillFile;
  SpillManager() = default;
  void Deregister(SpillFile* file);
  void NoteBytes(int64_t bytes) {
    bytes_spilled_.fetch_add(bytes, std::memory_order_relaxed);
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  mutable std::mutex mu_;
  std::set<SpillFile*> live_;          // guarded by mu_
  std::string dir_;                    // guarded by mu_; "" until created
  uint64_t next_file_ = 1;             // guarded by mu_
  std::atomic<int64_t> files_created_{0};
  std::atomic<int64_t> bytes_spilled_{0};
  std::atomic<int64_t> live_bytes_{0};
};

// ---------------------------------------------------------------------------
// The Grace primitive.
// ---------------------------------------------------------------------------

/// Hidden columns the spiller appends to every partitioned row. Consumers
/// use them to restore the exact in-memory order (and to re-partition on
/// recursion without rehashing key columns).
inline constexpr const char* kSpillRowCol = "__spill_row";    // original row index
inline constexpr const char* kSpillHashCol = "__spill_hash";  // key hash (bit-cast)

/// One co-partitioned input: a table plus its per-row key hashes (as
/// computed by relational::HashRows — the same hashes the in-memory
/// operators use, so partition membership agrees with bucket membership).
struct SpillInput {
  TablePtr table;
  const std::vector<uint64_t>* hashes = nullptr;  // size == table rows
};

/// Grace-style hash partitioner over k co-keyed inputs. Rows are written to
/// pow-2 many partition files in ascending row order; partitions are then
/// processed one at a time, recursively re-partitioned (salted hash) when
/// they still exceed the budget, and handed to the leaf callback.
class PartitionedSpiller {
 public:
  struct Options {
    int64_t budget_bytes = 0;   ///< in-memory working-set target (> 0)
    int max_depth = 4;          ///< recursion cap; at the cap the leaf runs over budget
    int64_t frame_rows = 16 * 1024;  ///< rows per NXB1 frame
    int max_partitions = 64;    ///< fan-out cap per level
    std::string tag;            ///< scratch-file label, e.g. "join" / "agg"
    /// When true, each input table's metered charge is released as soon as
    /// level 0 is on disk — for working tables the consumer built solely to
    /// spill (it must drop its own reference after Run).
    bool release_inputs = false;
  };

  /// Stats of one Run, surfaced in spans / EXPLAIN ANALYZE.
  struct Stats {
    int64_t partitions = 0;   ///< leaf partitions processed
    int64_t bytes_spilled = 0;
    int64_t recursions = 0;   ///< partitions that needed another split
    int max_depth = 0;        ///< deepest level reached (0 = no recursion)
  };

  /// The leaf: receives the co-partitioned in-memory tables (one per
  /// input, augmented with kSpillRowCol / kSpillHashCol as the two last
  /// columns). Tables arrive rows-ascending by original index; the leaf
  /// must not assume anything about partition visit order.
  using LeafFn = std::function<Status(const std::vector<TablePtr>& parts)>;

  PartitionedSpiller(SpillManager* manager, Options options);

  /// Partitions `inputs` and invokes `leaf` once per final partition.
  /// Cancellation, errors, and exceptions unwind through RAII — scratch
  /// files never outlive the call.
  Status Run(const std::vector<SpillInput>& inputs, const LeafFn& leaf);

  const Stats& stats() const { return stats_; }

 private:
  using FileGrid = std::vector<std::vector<std::unique_ptr<SpillFile>>>;

  /// Writes one partitioning level: splits `tables` (co-indexed with
  /// `hashes`) into files[input][partition]. When `augmented` is false the
  /// hidden row/hash columns are appended on the way out (level 0).
  Status PartitionLevel(const std::vector<TablePtr>& tables,
                        const std::vector<const std::vector<uint64_t>*>& hashes,
                        bool augmented, int depth, FileGrid* files,
                        std::vector<SchemaPtr>* schemas);
  /// Loads each partition in turn, recursing on still-over-budget
  /// splittable partitions, handing the rest to the leaf.
  Status ProcessFiles(FileGrid files, const std::vector<SchemaPtr>& schemas,
                      int depth, const LeafFn& leaf);
  int ChoosePartitionCount(int64_t total_bytes) const;

  SpillManager* manager_;
  Options options_;
  Stats stats_;
};

}  // namespace spill
}  // namespace nexus

#endif  // NEXUS_EXEC_SPILL_SPILL_H_
