#include "optimizer/stats.h"

#include <algorithm>
#include <iterator>

#include "common/hash.h"
#include "common/str_util.h"
#include "types/table.h"

namespace nexus {

void KmvSketch::Add(uint64_t hash) {
  if (keep_.size() == kK && hash >= keep_.back()) return;
  auto it = std::lower_bound(keep_.begin(), keep_.end(), hash);
  if (it != keep_.end() && *it == hash) return;
  keep_.insert(it, hash);
  if (keep_.size() > kK) keep_.pop_back();
}

void KmvSketch::Merge(const KmvSketch& other) {
  // Union the kept sets, then trim back to the k smallest. Identical to
  // having Add-ed other's whole stream: any hash small enough to survive in
  // the union's bottom k was kept by whichever sketch saw it.
  std::vector<uint64_t> merged;
  merged.reserve(keep_.size() + other.keep_.size());
  std::set_union(keep_.begin(), keep_.end(), other.keep_.begin(),
                 other.keep_.end(), std::back_inserter(merged));
  if (merged.size() > kK) merged.resize(kK);
  keep_ = std::move(merged);
}

double KmvSketch::Estimate() const {
  if (keep_.size() < kK) return static_cast<double>(keep_.size());
  // kth minimum at normalized position p estimates (k-1)/p values.
  double kth = static_cast<double>(keep_.back());
  double p = kth / 18446744073709551616.0;  // 2^64
  if (p <= 0.0) return static_cast<double>(kK);
  return static_cast<double>(kK - 1) / p;
}

namespace {

ColumnStats ComputeColumnStats(const Column& col, int64_t sample_limit,
                               int64_t* sampled_rows) {
  ColumnStats s;
  const int64_t n = col.size();
  s.null_count = col.null_count();

  // min/max and average width: full single pass, numeric types only track
  // ranges (string ordering does not drive our selectivity math).
  if (col.type() == DataType::kInt64 || col.type() == DataType::kFloat64) {
    for (int64_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) continue;
      double v = col.NumericAt(i);
      if (!s.has_minmax || v < s.min) s.min = v;
      if (!s.has_minmax || v > s.max) s.max = v;
      s.has_minmax = true;
    }
    s.avg_width = EstimatedWireWidth(col.type(), 0.0);
  } else if (col.type() == DataType::kString) {
    int64_t total_len = 0;
    for (const std::string& v : col.strings()) {
      total_len += static_cast<int64_t>(v.size());
    }
    double avg_len = n > 0 ? static_cast<double>(total_len) / n : 0.0;
    s.avg_width = EstimatedWireWidth(col.type(), avg_len);
  } else {
    s.avg_width = EstimatedWireWidth(col.type(), 0.0);
  }

  // NDV: sketch over an evenly strided sample, scaled back up only when the
  // sample looks mostly-unique (the classic "distinct values are either
  // proportional to size or saturated" heuristic).
  KmvSketch sketch;
  int64_t stride = sample_limit > 0 && n > sample_limit
                       ? (n + sample_limit - 1) / sample_limit
                       : 1;
  int64_t seen = 0, seen_nonnull = 0;
  for (int64_t i = 0; i < n; i += stride) {
    ++seen;
    if (col.IsNull(i)) continue;
    ++seen_nonnull;
    sketch.Add(col.HashAt(i));
  }
  double ndv = sketch.Estimate();
  if (stride > 1 && seen_nonnull > 0 && ndv > 0.8 * seen_nonnull) {
    ndv *= static_cast<double>(n) / (seen * 1.0);
  }
  s.distinct = std::min(ndv, static_cast<double>(std::max<int64_t>(n - s.null_count, 0)));
  if (s.distinct < 1.0 && n > s.null_count) s.distinct = 1.0;
  *sampled_rows = std::min(*sampled_rows, seen);
  return s;
}

}  // namespace

double TableStats::RowWidth() const {
  if (columns.empty()) return 8.0;
  double w = 0.0;
  for (const auto& [name, c] : columns) w += c.avg_width + 0.125;
  return w;
}

std::string TableStats::ToString() const {
  std::string out = StrCat("rows=", row_count);
  for (const auto& [name, c] : columns) {
    out += StrCat("  ", name, "{ndv=", FormatDouble(c.distinct, 0),
                  " nulls=", c.null_count);
    if (c.has_minmax) {
      out += StrCat(" range=[", FormatDouble(c.min, 2), ",",
                    FormatDouble(c.max, 2), "]");
    }
    out += "}";
  }
  return out;
}

double EstimatedWireWidth(DataType type, double avg_value_bytes) {
  switch (type) {
    case DataType::kString:
      // NXB1 string frame: (n+1) u32 cumulative offsets plus the blob.
      return avg_value_bytes + 4.0;
    default:
      return static_cast<double>(FixedWidth(type));
  }
}

TableStatsAccumulator::TableStatsAccumulator(SchemaPtr schema)
    : schema_(std::move(schema)),
      cols_(static_cast<size_t>(schema_->num_fields())) {}

void TableStatsAccumulator::AddTable(const Table& batch) {
  const int64_t n = batch.num_rows();
  for (int i = 0; i < batch.schema()->num_fields(); ++i) {
    ColumnAcc& acc = cols_[static_cast<size_t>(i)];
    const Column& col = batch.column(i);
    acc.null_count += col.null_count();
    if (col.type() == DataType::kInt64 || col.type() == DataType::kFloat64) {
      for (int64_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) continue;
        double v = col.NumericAt(r);
        if (!acc.has_minmax || v < acc.min) acc.min = v;
        if (!acc.has_minmax || v > acc.max) acc.max = v;
        acc.has_minmax = true;
      }
    } else if (col.type() == DataType::kString) {
      for (const std::string& v : col.strings()) {
        acc.string_bytes += static_cast<int64_t>(v.size());
      }
    }
    for (int64_t r = 0; r < n; ++r) {
      if (col.IsNull(r)) continue;
      acc.sketch.Add(col.HashAt(r));
    }
  }
  rows_ += n;
}

TableStats TableStatsAccumulator::Snapshot() const {
  TableStats stats;
  stats.row_count = rows_;
  stats.sampled_rows = rows_;  // every row passed through the sketches
  for (int i = 0; i < schema_->num_fields(); ++i) {
    const ColumnAcc& acc = cols_[static_cast<size_t>(i)];
    const Field& f = schema_->field(i);
    ColumnStats s;
    s.null_count = acc.null_count;
    s.has_minmax = acc.has_minmax;
    s.min = acc.min;
    s.max = acc.max;
    if (f.type == DataType::kString) {
      double avg_len =
          rows_ > 0 ? static_cast<double>(acc.string_bytes) / rows_ : 0.0;
      s.avg_width = EstimatedWireWidth(f.type, avg_len);
    } else {
      s.avg_width = EstimatedWireWidth(f.type, 0.0);
    }
    double ndv = acc.sketch.Estimate();
    s.distinct = std::min(
        ndv, static_cast<double>(std::max<int64_t>(rows_ - s.null_count, 0)));
    if (s.distinct < 1.0 && rows_ > s.null_count) s.distinct = 1.0;
    stats.columns[f.name] = s;
  }
  return stats;
}

TableStats ComputeStats(const Dataset& data, int64_t sample_limit) {
  TableStats stats;
  stats.row_count = data.num_rows();
  stats.sampled_rows = stats.row_count;
  if (!data.is_table()) return stats;  // arrays: cardinality only
  const Table& t = *data.table();
  for (int i = 0; i < t.schema()->num_fields(); ++i) {
    int64_t sampled = stats.row_count;
    stats.columns[t.schema()->field(i).name] =
        ComputeColumnStats(t.column(i), sample_limit, &sampled);
    stats.sampled_rows = std::min(stats.sampled_rows, sampled);
  }
  return stats;
}

}  // namespace nexus
