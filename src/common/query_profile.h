// QueryProfile: one query's share of the process-wide counters.
//
// Each QueryStat has one registry name, kept in one list here
// (QueryStatName: "coordinator.fragments", "provider.plan_cache_hit", ...).
// An instrumented site calls telemetry::Count(stat, n), which bumps that
// MetricsRegistry counter and the QueryProfile on the thread's TaskContext
// (common/parallel.h); no module resolves or names its own handle. The
// pool re-installs that context around every morsel, so work farmed out to
// pool workers lands in the profile of the query that submitted it.
// Per-query numbers (ExecutionMetrics, the service's QueryReport, the
// EXPLAIN ANALYZE trailer) are the profile itself, rendered by ToString;
// nothing subtracts snapshots of global counters, so they stay exact while
// other queries run concurrently. Profiles nest: a profile also counts into
// its parent, so an outer scope sees everything beneath it.
#ifndef NEXUS_COMMON_QUERY_PROFILE_H_
#define NEXUS_COMMON_QUERY_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/parallel.h"

namespace nexus {

/// What a profile counts, one X(stat, registry name) per entry: the one list
/// that both the QueryStat enum and QueryStatName expand, so an entry's
/// name cannot drift from its position. Transport stats cover every
/// attempt, failed ones included. parallel.morsels is the one stat without
/// a registry counter: the pool, which sits below telemetry/, keeps its
/// process total (GetParallelStats).
#define NEXUS_QUERY_STATS(X)                                                  \
  /* Transport (federation/transport.h). Per-kind entries follow              \
     MessageKind's order: plan, data, control. */                             \
  X(kMessages, "transport.messages")                                          \
  X(kBytes, "transport.bytes")                                                \
  X(kFailedMessages, "transport.failed_messages")                             \
  X(kClientBytes, "transport.client_bytes")                                   \
  X(kPlanMessages, "transport.plan_messages")                                 \
  X(kDataMessages, "transport.data_messages")                                 \
  X(kControlMessages, "transport.control_messages")                           \
  X(kPlanBytes, "transport.plan_bytes")                                       \
  X(kDataBytes, "transport.data_bytes")                                       \
  X(kControlBytes, "transport.control_bytes")                                 \
  /* Coordinator (federation/coordinator.h) and the providers' plan           \
     cache. */                                                                \
  X(kFragments, "coordinator.fragments")                                      \
  /* sibling fragments dispatched concurrently */                             \
  X(kParallelFragments, "coordinator.parallel_fragments")                     \
  X(kClientLoopIterations, "coordinator.client_loop_iterations")              \
  /* Fault recovery: all zero while the transport injects no faults.          \
     Resent messages, excluded servers, placement re-runs, exhausted          \
     fragment budgets and client-loop rewinds to a checkpoint. */             \
  X(kRetries, "coordinator.retries")                                          \
  X(kFailovers, "coordinator.failovers")                                      \
  X(kReplans, "coordinator.replans")                                          \
  X(kTimeouts, "coordinator.timeouts")                                        \
  X(kCheckpointRestores, "coordinator.checkpoint_restores")                   \
  /* plan bytes not re-shipped thanks to references */                        \
  X(kWireBytesSaved, "transport.bytes_saved")                                 \
  /* Client-driven loop bindings that traveled as %NXB1-DELTA tails, the      \
     rows in those tails, and the binding bytes a full re-ship would          \
     add. */                                                                  \
  X(kDeltaBindings, "coordinator.delta_bindings")                             \
  X(kDeltaRowsShipped, "coordinator.delta_rows_shipped")                      \
  X(kDeltaBytesSaved, "coordinator.delta_bytes_saved")                        \
  /* %NXB1-EXEC references resolved by a provider; full plans parsed,         \
     evicted references included. */                                          \
  X(kPlanCacheHits, "provider.plan_cache_hit")                                \
  X(kPlanCacheMisses, "provider.plan_cache_miss")                             \
  /* Morsel pool, expression compiler, spilling, semi-ring kernels and        \
     incremental views. */                                                    \
  X(kMorsels, "parallel.morsels")                                             \
  X(kExprCompiles, "expr.compile")                                            \
  X(kExprCacheHits, "expr.compile_cache_hit")                                 \
  X(kSpillOps, "spill.ops")                                                   \
  X(kSpillPartitions, "spill.partitions")                                     \
  X(kSpillBytes, "spill.bytes_written")                                       \
  X(kOpsLowered, "algebra.ops_lowered")                                       \
  X(kAlgebraJoins, "algebra.join")                                            \
  X(kAlgebraUnions, "algebra.union")                                          \
  X(kViewRefreshes, "incremental.refreshes")                                  \
  X(kViewFallbacks, "incremental.fallbacks")                                  \
  X(kViewDeltaRows, "incremental.delta_rows")

enum class QueryStat : int {
#define NEXUS_QUERY_STAT_ENUM(stat, name) stat,
  NEXUS_QUERY_STATS(NEXUS_QUERY_STAT_ENUM)
#undef NEXUS_QUERY_STAT_ENUM
  kCount_,
};

/// Registry name of `stat` ("coordinator.fragments"): "<group>.<stat>".
const char* QueryStatName(QueryStat stat);

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

  /// The nonzero stats grouped by their name's prefix, groups in order of
  /// first appearance in the table and joined by `separator`:
  /// "coordinator: fragments=3 retries=1". Empty when every stat is 0.
  std::string ToString(const char* separator = "\n") const;

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
/// TaskContext (cancel token, deadline, weight, meter, trace flag and
/// simulated clock inherited) with a fresh profile nested under the
/// caller's. `trace` additionally traces everything the scope runs
/// (telemetry::Enabled), whatever the process-wide switch says.
/// `sim_clock`, when set, is the simulated clock (seconds) the scope's
/// spans are stamped with.
class ScopedQuery {
 public:
  explicit ScopedQuery(bool trace = false,
                       std::function<double()> sim_clock = nullptr);
  ScopedQuery(const ScopedQuery&) = delete;
  ScopedQuery& operator=(const ScopedQuery&) = delete;

  const QueryProfile& profile() const { return profile_; }
  const TaskContext& context() const { return ctx_; }

 private:
  QueryProfile profile_;
  std::function<double()> sim_clock_;
  TaskContext ctx_;
  ScopedTaskContext scoped_;
};

}  // namespace nexus

#endif  // NEXUS_COMMON_QUERY_PROFILE_H_
