// QueryProfile: one query's share of the process-wide counters.
//
// Every instrumented site counts twice: into its cumulative process
// instrument (a MetricsRegistry counter, the transport's running totals,
// the pool's morsel count) and into the QueryProfile on the thread's
// TaskContext (common/parallel.h). The pool re-installs that context around
// every morsel, so work farmed out to pool workers lands in the profile of
// the query that submitted it. Per-query numbers (ExecutionMetrics, the
// service's QueryReport, the EXPLAIN ANALYZE trailer) are read off the
// profile; nothing subtracts snapshots of global counters, so they stay
// exact while other queries run concurrently. Profiles nest: a profile also
// counts into its parent, so an outer scope sees everything beneath it.
#ifndef NEXUS_COMMON_QUERY_PROFILE_H_
#define NEXUS_COMMON_QUERY_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/parallel.h"

namespace nexus {

/// What a profile counts. Transport stats cover every attempt, failed ones
/// included.
enum class QueryStat : int {
  // Transport (federation/transport.h). Per-kind entries follow
  // MessageKind's order: plan, data, control.
  kMessages, kBytes, kFailedMessages, kClientBytes,
  kPlanMessages, kDataMessages, kControlMessages,
  kPlanBytes, kDataBytes, kControlBytes,
  // Coordinator (federation/coordinator.h) and the providers' plan cache.
  kFragments, kParallelFragments, kClientLoopIterations, kRetries,
  kFailovers, kReplans, kTimeouts, kCheckpointRestores, kWireBytesSaved,
  kDeltaBindings, kDeltaRowsShipped, kDeltaBytesSaved,
  kPlanCacheHits, kPlanCacheMisses,
  // Morsel pool, expression compiler, spilling, semi-ring kernels and
  // incremental views.
  kMorsels, kExprCompiles, kExprCacheHits,
  kSpillOps, kSpillPartitions, kSpillBytes,
  kOpsLowered, kAlgebraJoins, kAlgebraUnions,
  kViewRefreshes, kViewFallbacks, kViewDeltaRows,
  kCount_,
};

/// Thread-safe: every add is a relaxed atomic, so morsels on pool workers
/// and sibling fragments count concurrently. Reads are exact once the
/// query's work has finished.
class QueryProfile {
 public:
  explicit QueryProfile(QueryProfile* parent = nullptr) : parent_(parent) {}
  /// Copies the values, not the parent link.
  QueryProfile(const QueryProfile& other) { *this = other; }
  QueryProfile& operator=(const QueryProfile& other);

  /// Adds `n` to `stat` here and in every ancestor.
  void Add(QueryStat stat, int64_t n);
  /// Simulated network seconds charged to this query (and its ancestors).
  void AddSimulatedSeconds(double seconds);

  int64_t operator[](QueryStat stat) const {
    return counts_[static_cast<size_t>(stat)].load(std::memory_order_relaxed);
  }
  double simulated_seconds() const {
    return simulated_seconds_.load(std::memory_order_relaxed);
  }

 private:
  QueryProfile* parent_ = nullptr;
  std::array<std::atomic<int64_t>, static_cast<size_t>(QueryStat::kCount_)>
      counts_{};
  std::atomic<double> simulated_seconds_{0.0};
};

/// The profile of the calling thread's TaskContext, or nullptr.
QueryProfile* CurrentQueryProfile();

/// Adds `n` to `stat` of the calling thread's profile, if any.
inline void CountForQuery(QueryStat stat, int64_t n = 1) {
  if (QueryProfile* p = CurrentQueryProfile()) p->Add(stat, n);
}

/// Runs the scope as one query: installs a copy of the calling thread's
/// TaskContext (cancel token, weight, meter and trace flag inherited) with
/// a fresh profile nested under the caller's. `trace` additionally traces
/// everything the scope runs (telemetry::Enabled), whatever the
/// process-wide switch says.
class ScopedQuery {
 public:
  explicit ScopedQuery(bool trace = false);
  ScopedQuery(const ScopedQuery&) = delete;
  ScopedQuery& operator=(const ScopedQuery&) = delete;

  const QueryProfile& profile() const { return profile_; }

 private:
  QueryProfile profile_;
  TaskContext ctx_;
  ScopedTaskContext scoped_;
};

}  // namespace nexus

#endif  // NEXUS_COMMON_QUERY_PROFILE_H_
