// Span-based distributed tracing for the federation and its engines.
//
// The paper's Intent Preservation and Server Interoperation desiderata are
// claims about *where* work ran and *which path* bytes took. A query's
// profile (common/query_profile.h, carried by ExecutionMetrics) can assert
// those claims; traces can show them. This tracer records one span per unit
// of attributable work — query, plan fragment, algebra operator, engine
// kernel, morsel, network message — with dual timestamps (wall clock and
// the simulated clock of the query's own transport, TaskContext::sim_clock)
// and a parent link, so a whole federated execution renders as one
// tree per query even when its spans were produced on different simulated
// servers (trace context travels inside federation messages; see
// WireHeader/StripWireHeader and Provider::ExecuteWire).
//
// Cost contract: tracing is off by default and every hook is gated on
// `Enabled()` — one relaxed atomic load plus a look at the thread's
// TaskContext — so instrumented code paths are near-zero cost when disabled
// and — critically — *behaviorally identical*: no clock reads, no
// allocation, no extra wire bytes. Seeded chaos and determinism traces are
// byte-for-byte unchanged with tracing off.
//
// Tracing is on for a piece of work when the process-wide switch is on
// (SetEnabled) or when the work runs under a TaskContext with `trace` set
// (ScopedQuery); the pool carries the context to every morsel, so one
// query can be traced while concurrent queries stay dark.
//
// Span ids are allocated from a monotonic counter (never randomized), so a
// single-threaded run is fully deterministic and a multi-threaded run is
// deterministic up to worker interleaving.
#ifndef NEXUS_TELEMETRY_TELEMETRY_H_
#define NEXUS_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace nexus {
namespace telemetry {

using SpanId = uint64_t;

/// Span categories (stable strings; the exporters group by them).
inline constexpr const char kCategoryCoordinator[] = "coordinator";
inline constexpr const char kCategoryServer[] = "server";
inline constexpr const char kCategoryOperator[] = "operator";
inline constexpr const char kCategoryEngine[] = "engine";
inline constexpr const char kCategoryMorsel[] = "morsel";
inline constexpr const char kCategoryTransport[] = "transport";
inline constexpr const char kCategoryService[] = "service";

/// One finished span. `sim_*` fields are stamped from the simulated clock
/// on the recording thread's TaskContext (set by the coordinator's
/// ScopedQuery), else 0.
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;   // 0 = root of its trace
  uint64_t trace = 0;  // one trace per query
  std::string name;
  const char* category = "";
  std::string server;  // endpoint the work ran on; "" = client tier
  int tid = 0;         // recording thread (export lane)
  double wall_start_us = 0.0;
  double wall_dur_us = 0.0;
  double sim_start_us = 0.0;
  double sim_dur_us = 0.0;
  /// Small named integers (rows, bytes, retries, ...), in insertion order.
  std::vector<std::pair<std::string, int64_t>> counters;

  /// Value of `key`, or `fallback` when absent.
  int64_t CounterOr(const std::string& key, int64_t fallback) const;
};

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Process-wide switch. Off by default.
void SetEnabled(bool on);

/// True when the calling thread's work is traced: the process-wide switch
/// is on, or the thread's TaskContext asks for tracing.
inline bool Enabled() {
  if (internal::g_enabled.load(std::memory_order_relaxed)) return true;
  const TaskContext* ctx = CurrentTaskContext();
  return ctx != nullptr && ctx->trace;
}

/// Drops all recorded spans and resets the span/trace id counters, so the
/// next query traces identically to a fresh process.
void ClearSpans();

/// Copy of every finished span, in completion order.
std::vector<SpanRecord> Spans();
int64_t SpanCount();

/// Trace context: what must travel with a federation message for the
/// receiver's spans to stitch under the sender's.
struct TraceContext {
  uint64_t trace = 0;
  SpanId parent = 0;
  std::string server;  // receiving endpoint's name, assigned by the sender
};

/// The calling thread's current context (for manual propagation).
TraceContext CurrentContext();
uint64_t CurrentTrace();
SpanId CurrentSpan();

/// Adopts a propagated context on this thread for the scope's lifetime —
/// the receiving half of cross-server stitching.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  bool active_ = false;
  uint64_t saved_trace_ = 0;
  SpanId saved_span_ = 0;
  std::string saved_server_;
};

/// RAII span. Construction opens the span as a child of the thread's
/// current span (allocating a fresh trace when there is none); destruction
/// records it. When tracing is disabled the guard is inert: no ids, no
/// clock reads, no record.
class SpanGuard {
 public:
  SpanGuard(const char* category, std::string name);
  SpanGuard(const char* category, std::string name, std::string server);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  bool active() const { return active_; }
  SpanId id() const { return rec_.id; }
  uint64_t trace() const { return rec_.trace; }

  /// Attaches a named integer (rows, bytes, ...). No-op when inactive.
  void AddCounter(const char* key, int64_t value);
  void SetServer(std::string server);

 private:
  void Open(const char* category, std::string&& name, std::string&& server);

  bool active_ = false;
  SpanRecord rec_;
  uint64_t saved_trace_ = 0;
  SpanId saved_span_ = 0;
};

/// Records an already-finished span (used by the transport, whose message
/// durations are known only in simulated time). Parented under the calling
/// thread's current span. No-op when tracing is disabled.
void RecordComplete(const char* category, std::string name, std::string server,
                    double sim_start_s, double sim_dur_s,
                    std::vector<std::pair<std::string, int64_t>> counters);

// ---------------------------------------------------------------------------
// In-band wire propagation.
// ---------------------------------------------------------------------------

/// Serializes a trace context as a one-line header prepended to a shipped
/// plan: "%NEXUS-TRACE <trace> <parent> <server>\n". The header costs wire
/// bytes — propagating context over a real network would too — so enabling
/// tracing changes metered byte counts; disabling it restores them exactly.
std::string WireHeader(uint64_t trace, SpanId parent, const std::string& server);

/// If `wire` begins with a trace header, parses it into *ctx and returns
/// the offset of the payload behind it; returns 0 when no header (ctx
/// untouched). Always recognized, even with tracing disabled, so a wire
/// built under tracing still parses after it is switched off.
size_t StripWireHeader(const std::string& wire, TraceContext* ctx);

/// Microseconds since the tracer epoch (first use), wall clock.
double WallNowUs();

}  // namespace telemetry
}  // namespace nexus

#endif  // NEXUS_TELEMETRY_TELEMETRY_H_
