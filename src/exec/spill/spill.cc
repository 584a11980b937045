#include "exec/spill/spill.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "core/serialize.h"
#include "telemetry/metrics.h"
#include "types/dataset.h"

namespace nexus {
namespace spill {

namespace {

namespace fs = std::filesystem;

/// "nxs-<pid>-" — Sweep() only ever deletes files carrying this process's
/// own prefix, so a shared NEXUS_SPILL_DIR is safe across processes.
std::string FilePrefix() { return StrCat("nxs-", static_cast<int64_t>(::getpid()), "-"); }

/// Cooperative-cancellation probe at partition/block boundaries.
Status CheckCancel() {
  const TaskContext* ctx = CurrentTaskContext();
  if (ctx != nullptr && ctx->cancel != nullptr && ctx->cancel->cancelled()) {
    return ctx->cancel->status();
  }
  return Status::OK();
}

/// The hash a row is partitioned by at `depth`. Level 0 uses the operator's
/// key hash directly (equal keys must co-locate with their hash buckets);
/// deeper levels re-mix with a depth salt so a skewed partition that shares
/// low bits still splits.
uint64_t PartHash(uint64_t h, int depth) {
  if (depth == 0) return h;
  return HashInt64(h + 0x53504C4Cull * static_cast<uint64_t>(depth));
}

/// Spill counters that are not per-query stats (those go through
/// telemetry::Count).
struct SpillCounters {
  telemetry::Counter* bytes_read;
  telemetry::Counter* recursions;
};

SpillCounters& Counters() {
  static SpillCounters c = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    return SpillCounters{reg.counter("spill.bytes_read"),
                         reg.counter("spill.recursions")};
  }();
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Policy.
// ---------------------------------------------------------------------------

int64_t SpillBudgetBytes() {
  MemoryMeter* meter = CurrentMemoryMeter();
  return meter != nullptr ? meter->SpillBudget() : 0;
}

bool ShouldSpill(int64_t estimated_bytes) {
  MemoryMeter* meter = CurrentMemoryMeter();
  if (meter == nullptr) return false;
  if (meter->SpillRequested()) return true;
  int64_t budget = meter->SpillBudget();
  return budget > 0 && estimated_bytes > budget;
}

void ReleaseTable(const TablePtr& table) {
  if (table != nullptr && CurrentMemoryMeter() != nullptr) {
    ReleaseAllocation(table->ByteSize());
  }
}

// ---------------------------------------------------------------------------
// SpillFile.
// ---------------------------------------------------------------------------

SpillFile::SpillFile(SpillManager* manager, std::string path, std::FILE* file)
    : manager_(manager), path_(std::move(path)), file_(file) {}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
  if (manager_ != nullptr) manager_->Deregister(this);
}

Status SpillFile::Append(const TablePtr& table) {
  if (table == nullptr) return Status::InvalidArgument("spill: null frame");
  std::string bytes = SerializeDatasetWire(Dataset(table), WireFormat::kBinary);
  uint8_t hdr[8];
  uint64_t len = bytes.size();
  for (int i = 0; i < 8; ++i) hdr[i] = static_cast<uint8_t>((len >> (8 * i)) & 0xFF);
  if (std::fwrite(hdr, 1, 8, file_) != 8 ||
      std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IOError(StrCat("spill: short write to ", path_));
  }
  int64_t delta = static_cast<int64_t>(8 + len);
  bytes_written_ += delta;
  frames_ += 1;
  rows_ += table->num_rows();
  manager_->NoteBytes(delta);
  return Status::OK();
}

Status SpillFile::ForEachFrame(const std::function<Status(TablePtr)>& fn) const {
  std::fflush(file_);
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::IOError(StrCat("spill: seek failed on ", path_));
  }
  std::string buf;
  for (int64_t f = 0; f < frames_; ++f) {
    uint8_t hdr[8];
    if (std::fread(hdr, 1, 8, file_) != 8) {
      return Status::IOError(StrCat("spill: truncated frame header in ", path_));
    }
    uint64_t len = 0;
    for (int i = 0; i < 8; ++i) len |= static_cast<uint64_t>(hdr[i]) << (8 * i);
    buf.resize(len);
    if (len > 0 && std::fread(buf.data(), 1, len, file_) != len) {
      return Status::IOError(StrCat("spill: truncated frame body in ", path_));
    }
    NEXUS_ASSIGN_OR_RETURN(Dataset ds, ParseDatasetWire(buf));
    NEXUS_ASSIGN_OR_RETURN(TablePtr table, ds.AsTable());
    NEXUS_RETURN_NOT_OK(fn(std::move(table)));
  }
  std::fseek(file_, 0, SEEK_END);
  return Status::OK();
}

Result<TablePtr> SpillFile::ReadAll(const SchemaPtr& schema) const {
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(schema->num_fields()));
  for (const Field& field : schema->fields()) cols.emplace_back(field.type);
  NEXUS_RETURN_NOT_OK(ForEachFrame([&](TablePtr frame) -> Status {
    if (frame->num_columns() != static_cast<int>(cols.size())) {
      return Status::Internal(StrCat("spill: frame schema mismatch in ", path_));
    }
    for (int i = 0; i < frame->num_columns(); ++i) {
      NEXUS_RETURN_NOT_OK(cols[static_cast<size_t>(i)].AppendColumn(frame->column(i)));
    }
    // The parsed frame was charged on materialization; it dies here.
    ReleaseTable(frame);
    return Status::OK();
  }));
  return Table::Make(schema, std::move(cols));
}

// ---------------------------------------------------------------------------
// SpillManager.
// ---------------------------------------------------------------------------

SpillManager& SpillManager::Global() {
  // Deliberately leaked: scratch files may outlive static destruction order;
  // their RAII handles (and Sweep) own on-disk cleanup.
  static SpillManager* g = new SpillManager();
  return *g;
}

std::string SpillManager::scratch_dir() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    fs::path dir;
    const char* env = std::getenv("NEXUS_SPILL_DIR");
    if (env != nullptr && env[0] != '\0') {
      dir = fs::path(env);
    } else {
      std::error_code ec;
      fs::path tmp = fs::temp_directory_path(ec);
      if (ec) tmp = ".";
      dir = tmp / StrCat("nexus-spill-", static_cast<int64_t>(::getpid()));
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    dir_ = dir.string();
  }
  return dir_;
}

Result<std::unique_ptr<SpillFile>> SpillManager::Create(const std::string& tag) {
  std::string dir = scratch_dir();
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_file_++;
  }
  std::string clean;
  for (char c : tag) {
    if (clean.size() >= 32) break;
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_';
    clean.push_back(ok ? c : '_');
  }
  std::string path = StrCat(dir, "/", FilePrefix(), static_cast<int64_t>(seq));
  if (!clean.empty()) path = StrCat(path, "-", clean);
  path += ".spill";
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    // Sweep() removes the directory once it is empty (a Server shutting
    // down); later spills in the same process recreate it.
    std::error_code ec;
    fs::create_directories(dir, ec);
    f = std::fopen(path.c_str(), "wb+");
  }
  if (f == nullptr) {
    return Status::IOError(StrCat("spill: cannot create scratch file ", path));
  }
  std::unique_ptr<SpillFile> file(new SpillFile(this, std::move(path), f));
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.insert(file.get());
  }
  files_created_.fetch_add(1, std::memory_order_relaxed);
  return file;
}

void SpillManager::Deregister(SpillFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(file);
  live_bytes_.fetch_add(-file->bytes_written_, std::memory_order_relaxed);
}

int64_t SpillManager::live_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(live_.size());
}

int64_t SpillManager::Sweep() {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dir_.empty()) return 0;  // never spilled: nothing to reap
    dir = dir_;
  }
  const std::string prefix = FilePrefix();
  int64_t removed = 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec), end;
  while (!ec && it != end) {
    const fs::path p = it->path();
    std::string name = p.filename().string();
    if (name.rfind(prefix, 0) == 0) {
      std::error_code rec;
      if (fs::remove(p, rec)) ++removed;
    }
    it.increment(ec);
  }
  std::error_code rec;
  fs::remove(dir, rec);  // succeeds only when the directory is now empty
  return removed;
}

// ---------------------------------------------------------------------------
// PartitionedSpiller.
// ---------------------------------------------------------------------------

PartitionedSpiller::PartitionedSpiller(SpillManager* manager, Options options)
    : manager_(manager), options_(std::move(options)) {
  if (options_.budget_bytes <= 0) options_.budget_bytes = 1 << 20;
  if (options_.frame_rows <= 0) options_.frame_rows = 16 * 1024;
  if (options_.max_partitions < 2) options_.max_partitions = 2;
  if (options_.max_depth < 1) options_.max_depth = 1;
}

int PartitionedSpiller::ChoosePartitionCount(int64_t total_bytes) const {
  // Target partitions of ~half the budget so the leaf's own working set
  // (hash table, pair vectors) fits beside the loaded partition.
  int64_t half = std::max<int64_t>(1, options_.budget_bytes / 2);
  int64_t want = total_bytes / half + 1;
  int p = 2;
  while (p < want && p < options_.max_partitions) p <<= 1;
  return p;
}

Status PartitionedSpiller::Run(const std::vector<SpillInput>& inputs,
                               const LeafFn& leaf) {
  if (inputs.empty()) return Status::InvalidArgument("spill: no inputs");
  std::vector<TablePtr> tables;
  std::vector<const std::vector<uint64_t>*> hashes;
  for (const SpillInput& in : inputs) {
    if (in.table == nullptr || in.hashes == nullptr) {
      return Status::InvalidArgument("spill: null input table or hash vector");
    }
    if (static_cast<int64_t>(in.hashes->size()) != in.table->num_rows()) {
      return Status::InvalidArgument(
          StrCat("spill: ", in.hashes->size(), " hashes for ",
                 in.table->num_rows(), " rows"));
    }
    tables.push_back(in.table);
    hashes.push_back(in.hashes);
  }
  telemetry::Count(QueryStat::kSpillOps);
  FileGrid files;
  std::vector<SchemaPtr> schemas(tables.size());
  NEXUS_RETURN_NOT_OK(
      PartitionLevel(tables, hashes, /*augmented=*/false, 0, &files, &schemas));
  if (options_.release_inputs) {
    for (const TablePtr& t : tables) ReleaseTable(t);
  }
  return ProcessFiles(std::move(files), schemas, 0, leaf);
}

Status PartitionedSpiller::PartitionLevel(
    const std::vector<TablePtr>& tables,
    const std::vector<const std::vector<uint64_t>*>& hashes, bool augmented,
    int depth, FileGrid* files, std::vector<SchemaPtr>* schemas) {
  const size_t k = tables.size();
  int64_t total_bytes = 0;
  for (const TablePtr& t : tables) total_bytes += t->ByteSize();
  const int P = ChoosePartitionCount(total_bytes);

  files->clear();
  files->resize(k);
  for (size_t i = 0; i < k; ++i) (*files)[i].resize(static_cast<size_t>(P));

  int64_t written_before = 0;
  for (size_t in = 0; in < k; ++in) {
    // Resolve the augmented schema: original fields plus the hidden
    // row-index and key-hash columns (already present past level 0).
    SchemaPtr aug_schema;
    if (augmented) {
      aug_schema = tables[in]->schema();
    } else {
      std::vector<Field> fields = tables[in]->schema()->fields();
      fields.push_back(Field::Attr(kSpillRowCol, DataType::kInt64));
      fields.push_back(Field::Attr(kSpillHashCol, DataType::kInt64));
      NEXUS_ASSIGN_OR_RETURN(aug_schema, Schema::Make(std::move(fields)));
    }
    (*schemas)[in] = aug_schema;

    const std::vector<uint64_t>& hv = *hashes[in];
    const int64_t n = tables[in]->num_rows();
    std::vector<std::vector<int64_t>> part_rows(static_cast<size_t>(P));
    for (int64_t start = 0; start < n; start += options_.frame_rows) {
      NEXUS_RETURN_NOT_OK(CheckCancel());
      const int64_t end = std::min(n, start + options_.frame_rows);
      for (auto& rows : part_rows) rows.clear();
      for (int64_t i = start; i < end; ++i) {
        uint64_t p = PartHash(hv[static_cast<size_t>(i)], depth) &
                     static_cast<uint64_t>(P - 1);
        part_rows[static_cast<size_t>(p)].push_back(i);
      }
      for (int p = 0; p < P; ++p) {
        const std::vector<int64_t>& rows = part_rows[static_cast<size_t>(p)];
        if (rows.empty()) continue;
        std::unique_ptr<SpillFile>& file = (*files)[in][static_cast<size_t>(p)];
        if (file == nullptr) {
          NEXUS_ASSIGN_OR_RETURN(
              file, manager_->Create(StrCat(options_.tag, "-d",
                                            static_cast<int64_t>(depth), "-i",
                                            static_cast<int64_t>(in), "-p",
                                            static_cast<int64_t>(p))));
        }
        TablePtr sub = tables[in]->TakeRows(rows);
        if (augmented) {
          NEXUS_RETURN_NOT_OK(file->Append(sub));
          continue;
        }
        std::vector<Column> cols = sub->columns();
        std::vector<int64_t> hash_bits;
        hash_bits.reserve(rows.size());
        for (int64_t i : rows) {
          hash_bits.push_back(static_cast<int64_t>(hv[static_cast<size_t>(i)]));
        }
        cols.push_back(Column::FromInt64(rows));
        cols.push_back(Column::FromInt64(std::move(hash_bits)));
        NEXUS_ASSIGN_OR_RETURN(TablePtr frame,
                               Table::Make(aug_schema, std::move(cols)));
        Status st = file->Append(frame);
        ReleaseTable(frame);  // on disk now; drop the transient charge
        NEXUS_RETURN_NOT_OK(st);
      }
    }
  }
  for (size_t in = 0; in < k; ++in) {
    for (const auto& file : (*files)[in]) {
      if (file != nullptr) written_before += file->bytes_written();
    }
  }
  stats_.bytes_spilled += written_before;
  telemetry::Count(QueryStat::kSpillBytes, written_before);
  return Status::OK();
}

Status PartitionedSpiller::ProcessFiles(FileGrid files,
                                        const std::vector<SchemaPtr>& schemas,
                                        int depth, const LeafFn& leaf) {
  const size_t k = files.size();
  const size_t P = k == 0 ? 0 : files[0].size();
  for (size_t p = 0; p < P; ++p) {
    bool any = false;
    for (size_t in = 0; in < k; ++in) any = any || files[in][p] != nullptr;
    if (!any) continue;
    NEXUS_RETURN_NOT_OK(CheckCancel());

    int64_t disk_bytes = 0;
    std::vector<TablePtr> parts(k);
    std::vector<bool> charged(k, false);
    for (size_t in = 0; in < k; ++in) {
      if (files[in][p] != nullptr) {
        disk_bytes += files[in][p]->bytes_written();
        NEXUS_ASSIGN_OR_RETURN(parts[in], files[in][p]->ReadAll(schemas[in]));
        charged[in] = true;
        files[in][p].reset();  // unlink the partition's scratch immediately
      } else {
        parts[in] = Table::Empty(schemas[in]);
      }
    }
    Counters().bytes_read->Add(disk_bytes);

    int64_t loaded = 0;
    int64_t loaded_rows = 0;
    for (const TablePtr& t : parts) {
      loaded += t->ByteSize();
      loaded_rows += t->num_rows();
    }
    // A partition is splittable when its rows span more than one key hash;
    // all-equal keys land in one partition at every salt, so recursing would
    // never converge — process such a partition in memory at any size.
    bool splittable = false;
    {
      bool have_first = false;
      int64_t first = 0;
      for (const TablePtr& t : parts) {
        const std::vector<int64_t>& hs =
            t->column(t->num_columns() - 1).ints();
        for (int64_t h : hs) {
          if (!have_first) {
            first = h;
            have_first = true;
          } else if (h != first) {
            splittable = true;
            break;
          }
        }
        if (splittable) break;
      }
    }

    if (depth < options_.max_depth && loaded > options_.budget_bytes &&
        loaded_rows > 1 && splittable) {
      stats_.recursions += 1;
      Counters().recursions->Increment();
      // Re-derive each row's key hash from the hidden column, re-partition
      // with the next depth's salt, and drop this partition before
      // descending so resident bytes never stack across levels.
      std::vector<std::vector<uint64_t>> hv(k);
      std::vector<const std::vector<uint64_t>*> hash_ptrs(k);
      for (size_t in = 0; in < k; ++in) {
        const std::vector<int64_t>& hs =
            parts[in]->column(parts[in]->num_columns() - 1).ints();
        hv[in].reserve(hs.size());
        for (int64_t h : hs) hv[in].push_back(static_cast<uint64_t>(h));
        hash_ptrs[in] = &hv[in];
      }
      FileGrid sub;
      std::vector<SchemaPtr> sub_schemas(k);
      Status st = PartitionLevel(parts, hash_ptrs, /*augmented=*/true,
                                 depth + 1, &sub, &sub_schemas);
      for (size_t in = 0; in < k; ++in) {
        if (charged[in]) ReleaseTable(parts[in]);
      }
      parts.clear();
      hv.clear();
      NEXUS_RETURN_NOT_OK(st);
      NEXUS_RETURN_NOT_OK(ProcessFiles(std::move(sub), sub_schemas, depth + 1, leaf));
      continue;
    }

    stats_.partitions += 1;
    stats_.max_depth = std::max(stats_.max_depth, depth);
    telemetry::Count(QueryStat::kSpillPartitions);
    Status st = leaf(parts);
    for (size_t in = 0; in < k; ++in) {
      if (charged[in]) ReleaseTable(parts[in]);
    }
    NEXUS_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace spill
}  // namespace nexus
