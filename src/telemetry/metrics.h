// MetricsRegistry: process-wide named counters, gauges, and histograms.
//
// Instruments are cumulative and monotonic (counters) or last-write
// (gauges): whole-process numbers for dashboards. Per-query numbers do not
// come from here. A count a query's report needs is a QueryStat, and its
// site calls `Count(stat, n)`: that bumps the stat's registry counter
// (named by the one list in common/query_profile.h) and the calling
// thread's QueryProfile together, and the federation's ExecutionMetrics
// carries that profile. The registry itself is always on: an atomic add is
// cheaper than the work it counts, and a metrics system that must be
// switched on before the incident is useless.
//
// Instruments are created lazily by name and never destroyed, so a
// `Counter*` obtained once may be cached and used lock-free forever; that
// is how the instruments that are not QueryStats (gauges, histograms,
// whole-process counters like transport.faults) are kept.
#ifndef NEXUS_TELEMETRY_METRICS_H_
#define NEXUS_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_profile.h"

namespace nexus {
namespace telemetry {

/// Monotonic event count. Thread-safe.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the counter (MetricsRegistry::ResetForTest only).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Adds `n` to `stat`: to its registry counter (QueryStatName, resolved
/// once) and to the calling thread's query profile, if one is installed.
/// Not for kMorsels, which the pool counts (common/parallel.h).
void Count(QueryStat stat, int64_t n = 1);

/// Last-observed value (thread budgets, level settings). Thread-safe.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two bucketed distribution of non-negative values (bytes,
/// milliseconds): bucket i counts values in [2^(i-1), 2^i), bucket 0
/// counts values < 1. Thread-safe; Record is two relaxed atomic adds.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double value);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Upper edge of the bucket holding the p-quantile (0 < p <= 1), an upper
  /// bound on the true quantile. 0 when empty.
  double ApproxQuantile(double p) const;
  std::vector<int64_t> bucket_counts() const;
  /// Zeroes the histogram (MetricsRegistry::ResetForTest only).
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name → instrument. One process-global instance (Global()); separate
/// instances exist only for tests.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Lazily creates on first use; returned pointers are stable forever.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Current value of every counter (a consistent-enough snapshot for
  /// whole-run dashboards; individual reads are atomic).
  std::map<std::string, int64_t> CounterValues() const;

  /// Human-readable dump of every instrument, sorted by name.
  std::string ToString() const;

  /// Zeroes every instrument in place (pointers stay valid). Test helper.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace nexus

#endif  // NEXUS_TELEMETRY_METRICS_H_
