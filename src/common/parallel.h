// Morsel-driven parallel execution primitives shared by every engine.
//
// The unit of scheduling is a *morsel*: a contiguous index range carved out
// of a larger job (rows of a table, chunks of an array, row-blocks of a
// matrix, sibling plan fragments). Workers self-schedule morsels off a
// shared atomic cursor — a work-stealing discipline in the morsel-driven
// style of Leis et al.: whichever thread is free next takes the next morsel,
// so skew in morsel cost balances itself without a static partition.
//
// Determinism contract (relied on by the property tests): the *decomposition*
// of a job into morsels depends only on the job size and the grain, never on
// the thread count, and every algorithm built on these primitives writes
// results into pre-assigned slots (or merges partial results in morsel
// order). Consequently results are byte-identical for any thread count,
// and `SetThreadCount(1)` executes the exact sequential code path.
//
// The pool is process-global and lazy: no threads are created until the
// first parallel region that wants helpers, and a thread count of 1 never
// touches the pool at all.
#ifndef NEXUS_COMMON_PARALLEL_H_
#define NEXUS_COMMON_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"

namespace nexus {

class MemoryMeter;   // common/memory.h
class QueryProfile;  // common/query_profile.h

/// Hard ceiling on pool workers (a safety valve, not a tuning knob).
inline constexpr int kMaxThreads = 64;

/// Default rows per morsel for row-oriented loops: large enough that the
/// scheduling overhead vanishes, small enough to balance skewed work.
inline constexpr int64_t kMorselRows = 16 * 1024;

/// Sets the process-wide thread budget for parallel regions. 1 = strictly
/// sequential (legacy behavior); 0 resets to the hardware default.
void SetThreadCount(int threads);

/// Current process-wide thread budget (>= 1).
int GetThreadCount();

/// std::thread::hardware_concurrency, clamped to [1, kMaxThreads].
int HardwareThreads();

/// Cumulative process-wide counters (whole-run dashboards). Per-query
/// morsel counts come from the query's QueryProfile instead.
struct ParallelStats {
  int64_t morsels = 0;  ///< morsels executed (1 per serial region)
  int64_t regions = 0;  ///< parallel regions that actually used helpers
};
ParallelStats GetParallelStats();

/// Runs body(begin, end) over morsels of [0, n) with the given grain.
/// Morsel boundaries are i*grain .. min(n, (i+1)*grain) regardless of the
/// thread budget. `threads` <= 0 uses GetThreadCount(). With an effective
/// budget of 1 (or a single morsel) the body runs inline on the caller.
/// The body must not throw status errors across the boundary — engines
/// collect per-morsel Statuses into pre-sized slots instead.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body,
                 int threads = 0);

/// The calling thread's cancel status when its token has fired, else an
/// Internal error: what ParallelMorsels reports for a morsel that never ran.
Status SkippedMorselStatus();

/// ParallelFor for bodies that produce output: runs body(begin, end) -> T
/// over kMorselRows morsels of [0, n) and returns the results in morsel
/// order — one per morsel, or a single result for [0, n) when the region
/// runs inline. Each body fills storage it owns (reserved to its own bound)
/// and its result is moved into its slot once, so workers never grow
/// vectors through adjacent shared headers (false sharing). Concatenating
/// the results in order reproduces one sequential pass. A cancelled region
/// skips morsels; the caller then gets SkippedMorselStatus(), never a short
/// result.
template <typename T, typename Body>
Result<std::vector<T>> ParallelMorsels(int64_t n, Body&& body) {
  if (n <= 0) return std::vector<T>{};
  std::vector<std::optional<T>> slots(
      static_cast<size_t>((n + kMorselRows - 1) / kMorselRows));
  std::atomic<int64_t> covered{0};
  ParallelFor(n, kMorselRows, [&](int64_t begin, int64_t end) {
    slots[static_cast<size_t>(begin / kMorselRows)].emplace(body(begin, end));
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  if (covered.load(std::memory_order_relaxed) != n) {
    return SkippedMorselStatus();
  }
  std::vector<T> out;
  out.reserve(slots.size());
  for (std::optional<T>& s : slots) {
    if (s.has_value()) out.push_back(std::move(*s));
  }
  return out;
}

/// Runs heterogeneous tasks concurrently (the federation's sibling-fragment
/// fan-out). The caller participates; with an effective budget of 1 the
/// tasks run inline in index order, exactly like a for loop.
void ParallelRun(const std::vector<std::function<void()>>& tasks,
                 int threads = 0);

/// Per-task scheduling and attribution context — the multi-tenant service's
/// handle into the shared pool. A TaskContext is installed thread-locally
/// (ScopedTaskContext) by whoever owns the work, snapshot by value into
/// every parallel region the thread submits, and re-installed around each
/// morsel on whichever worker executes it, so:
///   - `cancel`: morsel loops are cooperatively cancellable — once the token
///     fires, remaining morsels of the region are claimed-and-skipped (the
///     region still completes, fast, and the caller observes the token);
///   - `deadline_simulated_seconds`: the query's absolute deadline on its
///     simulated clock; the coordinator fires `cancel` with kTimeout once
///     the clock crosses it;
///   - `weight`: when several regions are in flight, idle workers pick the
///     region with the lowest claimed-morsels/weight ratio, a deficit
///     discipline that keeps one heavy tenant from starving light ones;
///   - `meter`: collection allocations on worker threads charge the
///     submitting query's memory meter (see common/memory.h);
///   - `profile`: counters and morsels on worker threads count into the
///     submitting query's QueryProfile (see common/query_profile.h);
///   - `trace`: spans are recorded for this work even while process-wide
///     tracing is off (see telemetry::Enabled), so EXPLAIN ANALYZE traces
///     its own query and no other;
///   - `sim_clock`: the simulated clock (seconds) this work's spans are
///     stamped with — the query's own cluster transport, so concurrent
///     queries on different clusters never read each other's clock.
/// With no context installed (all single-query uses) behavior is exactly
/// the legacy pool: FIFO region pick, weight 1, no cancellation, no meter.
struct TaskContext {
  CancelToken* cancel = nullptr;            ///< not owned; may be null
  double deadline_simulated_seconds = 0.0;  ///< 0 = no deadline
  int weight = 1;                           ///< scheduling-class weight (>= 1)
  MemoryMeter* meter = nullptr;             ///< not owned; may be null
  QueryProfile* profile = nullptr;          ///< not owned; may be null
  bool trace = false;
  /// Not owned; may be null.
  const std::function<double()>* sim_clock = nullptr;
};

/// The calling thread's context, or nullptr.
const TaskContext* CurrentTaskContext();

/// RAII install/restore of the thread's TaskContext. The context must
/// outlive every parallel region submitted within the scope.
class ScopedTaskContext {
 public:
  explicit ScopedTaskContext(const TaskContext* ctx);
  ~ScopedTaskContext();
  ScopedTaskContext(const ScopedTaskContext&) = delete;
  ScopedTaskContext& operator=(const ScopedTaskContext&) = delete;

 private:
  const TaskContext* saved_;
};

/// Observer hooks for per-morsel telemetry. The pool stays telemetry-
/// agnostic: a hook table is installed by the telemetry layer, and a
/// region whose `region_begin` returns 0 (untraced work) fires no morsel
/// hook, so the uninstrumented path costs one call per region.
///
/// Lifecycle per parallel region: `region_begin` runs on the submitting
/// thread before any morsel and returns an opaque token (0 = don't
/// observe); each morsel is bracketed by `morsel_begin`/`morsel_end` on
/// the thread that executes it (the handle returned by begin is passed to
/// end); `region_end` runs on the submitting thread after every morsel
/// finished. Both the inline (budget 1) and pooled paths fire the hooks,
/// so morsel decomposition reported by telemetry matches the determinism
/// contract above.
struct ParallelHooks {
  uint64_t (*region_begin)();
  void (*region_end)(uint64_t token);
  uint64_t (*morsel_begin)(uint64_t token, int64_t index);
  void (*morsel_end)(uint64_t handle);
};

/// Atomically installs (or, with nullptr, removes) the hook table. The
/// table must outlive its installation; regions in flight during a switch
/// finish with the table they started with.
void SetParallelHooks(const ParallelHooks* hooks);

}  // namespace nexus

#endif  // NEXUS_COMMON_PARALLEL_H_
