// Table and column statistics — the raw material of cost-based planning.
//
// Stats are computed when a collection is registered in an InMemoryCatalog
// (one scan at Put time, NDV from a bounded sample) and are refreshable on
// demand. The cardinality estimator (optimizer/cardinality.h) consumes them
// to predict operator output sizes; the coordinator consumes the estimates
// to place fragments where the fewest estimated bytes cross the wire.
#ifndef NEXUS_OPTIMIZER_STATS_H_
#define NEXUS_OPTIMIZER_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "types/dataset.h"
#include "types/table.h"

namespace nexus {

/// K-minimum-values distinct-count sketch: keep the k smallest distinct
/// hashes seen; with fewer than k values the count is exact, past that the
/// kth-smallest hash estimates the density of the hash space. Mergeable:
/// the union of two sketches' kept sets, trimmed back to k, is exactly the
/// sketch of the concatenated streams — which is what makes O(|Δ|)
/// append-time maintenance possible (sketch the delta, merge into the
/// running sketch).
class KmvSketch {
 public:
  static constexpr size_t kK = 256;

  void Add(uint64_t hash);
  /// Folds `other` in. Equivalent to having Add-ed every hash `other` saw.
  void Merge(const KmvSketch& other);
  double Estimate() const;
  /// Number of hashes currently kept (< kK means the estimate is exact).
  size_t kept() const { return keep_.size(); }

 private:
  std::vector<uint64_t> keep_;  // sorted: the k smallest distinct hashes
};

/// Per-column summary: enough to estimate range/equality selectivity and
/// the column's width on the NXB1 wire.
struct ColumnStats {
  /// Estimated number of distinct non-null values (KMV sketch; exact for
  /// small columns).
  double distinct = 0.0;
  int64_t null_count = 0;
  /// Numeric min/max (ints widened to double). Meaningless unless
  /// has_minmax; string columns never set it.
  bool has_minmax = false;
  double min = 0.0;
  double max = 0.0;
  /// Estimated bytes per value on the NXB1 wire: the fixed width for
  /// numerics/bools, average length + 4 offset bytes for strings.
  double avg_width = 8.0;
};

/// Per-table summary keyed by column name.
struct TableStats {
  int64_t row_count = 0;
  /// Rows the NDV sketch actually saw (== row_count unless sampled).
  int64_t sampled_rows = 0;
  std::map<std::string, ColumnStats> columns;

  /// Estimated NXB1 bytes for one full row (sum of column widths, plus the
  /// per-column validity overhead). Columns without stats count 8 bytes.
  double RowWidth() const;

  std::string ToString() const;
};

/// Rows the NDV sketch scans at most; min/max and null counts always scan
/// the full column (they are branch-light single passes).
inline constexpr int64_t kStatsSampleLimit = 65536;

/// One-pass statistics over a dataset. Tables get full per-column stats;
/// array datasets get row_count only (their dimension geometry already
/// lives in the chunk index, and converting to a table just to sketch it
/// would dwarf the registration itself).
TableStats ComputeStats(const Dataset& data,
                        int64_t sample_limit = kStatsSampleLimit);

/// Estimated NXB1 wire bytes per value for a column of `type` whose average
/// in-memory payload is `avg_value_bytes` (only used for strings: their
/// frame stores (n+1) u32 offsets plus the byte blob).
double EstimatedWireWidth(DataType type, double avg_value_bytes);

/// Incremental table statistics: one KMV sketch plus running
/// min/max/null-count/width per column, foldable a batch at a time. Feeding
/// the seed table once and then each appended delta keeps Snapshot() current
/// at O(|Δ|) per append — the streaming counterpart of ComputeStats, which
/// rescans the whole table. Unlike the Put-time path it never samples: every
/// row passes through the sketch, so estimates stay stable as tables grow.
class TableStatsAccumulator {
 public:
  explicit TableStatsAccumulator(SchemaPtr schema);

  /// Folds one batch of rows in (schema must match the constructor's).
  void AddTable(const Table& batch);

  /// Current statistics for everything folded so far.
  TableStats Snapshot() const;

  int64_t rows() const { return rows_; }

 private:
  struct ColumnAcc {
    KmvSketch sketch;
    int64_t null_count = 0;
    bool has_minmax = false;
    double min = 0.0;
    double max = 0.0;
    int64_t string_bytes = 0;  // total payload of string columns
  };
  SchemaPtr schema_;
  std::vector<ColumnAcc> cols_;
  int64_t rows_ = 0;
};

}  // namespace nexus

#endif  // NEXUS_OPTIMIZER_STATS_H_
