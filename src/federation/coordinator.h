// Coordinator: the client-tier planner and orchestrator for multi-server
// queries — the component that realizes the paper's vision sentence: "an
// algebra query that spans servers should be realizable as a plan where
// intermediate results pass directly between servers, rather than being
// routed through the application or a middle tier."
//
// Responsibilities:
//   - capability-based placement: each node goes to a server whose provider
//     claims it, preferring specialists for intent ops and data locality
//     otherwise;
//   - fragmentation: maximal same-server subtrees become one shipped
//     expression tree each (the LINQ property);
//   - transfers: cross-server edges move intermediates either directly
//     (server → server) or relayed through the client, per options —
//     experiment E4's knob;
//   - control iteration: an Iterate claimed whole by one provider ships as
//     a single fragment (provider-side); otherwise the coordinator drives
//     the loop from the client — experiment E6's knob;
//   - a deliberately chatty per-operator execution mode, the baseline the
//     paper's expression-tree-shipping claim is measured against (E5).
#ifndef NEXUS_FEDERATION_COORDINATOR_H_
#define NEXUS_FEDERATION_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/query_profile.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/wire_format.h"
#include "federation/cluster.h"
#include "optimizer/optimizer.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace nexus {

/// How the coordinator recovers from retryable transport failures
/// (kUnavailable / kTimeout — see IsRetryable in common/status.h). All
/// waiting is charged to the transport's simulated clock, so backoff can
/// outlast a scripted down window.
struct RetryPolicy {
  /// Total attempts per message, including the first (1 = never retry).
  int max_attempts = 4;
  /// First backoff pause (simulated seconds); doubles-style growth below.
  double initial_backoff_seconds = 0.01;
  double backoff_multiplier = 2.0;
  /// Each pause is scaled by a uniform factor in [1-j, 1+j] drawn from a
  /// seeded RNG, so identical seeds yield identical retry traces.
  double jitter_fraction = 0.2;
  uint64_t jitter_seed = 17;
  /// Simulated-time budget per message including its retries and backoff
  /// pauses; exceeding it fails the fragment with kTimeout. 0 = unlimited.
  double fragment_timeout_seconds = 0.0;
  /// Client-driven Iterate loops snapshot the loop variable at the client
  /// every K iterations; a mid-loop server failure rewinds to the last
  /// snapshot instead of restarting the loop.
  int checkpoint_every = 4;
};

struct CoordinatorOptions {
  /// How cross-server intermediates travel (E4).
  TransferMode transfer_mode = TransferMode::kDirect;
  /// Ship whole Iterate nodes to a capable provider when possible (E6).
  bool provider_side_iteration = true;
  /// Route intent ops to specialist providers even when data is elsewhere.
  bool prefer_specialist = true;
  /// Cost-based fragment placement (E14): break placement ties by the
  /// estimated bytes each candidate server would pull across the wire
  /// (cardinality × NXB1 row width from catalog statistics). Off = the
  /// legacy "host where the bulkier input lives" heuristic.
  bool cost_based_placement = true;
  /// Run the logical optimizer before planning.
  bool optimize = true;
  OptimizerOptions optimizer;
  /// Recovery behaviour under transport faults.
  RetryPolicy retry;
  /// Thread budget for concurrent sibling-fragment dispatch. 0 = inherit the
  /// process-wide budget (SetThreadCount / NEXUS_THREADS); 1 = the exact
  /// legacy sequential dispatch order (required for reproducible fault
  /// traces — see DESIGN.md's determinism contract).
  int thread_count = 0;
  /// Ship each distinct plan wire to a server at most once: later shipments
  /// of the same fingerprint send a fixed-size %NXB1-EXEC reference and the
  /// provider re-executes its cached parse (Provider::kPlanCacheCapacity).
  /// Also enables the serialize-once fast path for client-driven loops,
  /// where only the changed loop-variable bindings travel per round.
  bool plan_cache = true;
  /// Cooperative cancellation (the multi-tenant service's kill switch).
  /// Checked at every fragment/message/loop boundary; when the token fires
  /// mid-execution, Execute unwinds with the token's status and the
  /// TempGuard releases all registered temps. Null = never cancelled.
  CancelTokenPtr cancel;
  /// Absolute deadline on the transport's simulated clock (seconds);
  /// crossing it cancels the token (kTimeout) at the next check. 0 = none.
  double deadline_simulated_seconds = 0.0;
  /// Disambiguates temp names when several coordinators share one cluster:
  /// temps become "__frag_<ns>_<n>". Empty (default) keeps the legacy
  /// "__frag_<n>" names — and the byte-identical wire traces the seeded
  /// chaos tests assert on.
  std::string temp_namespace;
};

/// Per-execution accounting. `profile` is the QueryProfile (common/
/// query_profile.h) that Execute installs for the call: every transport
/// attempt, coordinator counter and pool morsel the call causes is counted
/// there as it happens, so the numbers are exact even while other queries
/// share the transport, the pool and the registry. Read a count as
/// `profile[QueryStat::kFragments]`, simulated network time as
/// `profile.simulated_seconds()`.
struct ExecutionMetrics {
  double wall_seconds = 0.0;
  int64_t threads_used = 0;  // effective thread budget for this call
  std::map<std::string, int64_t> nodes_per_server;
  QueryProfile profile;

  /// "wall=…ms  sim=…ms  threads=N" and then the profile's nonzero stats,
  /// one group per prefix ("coordinator: fragments=3 retries=1").
  std::string ToString() const;
};

/// Catalog view spanning every server in a cluster (schema resolution for
/// planning; first registered holder wins).
class FederatedCatalog : public Catalog {
 public:
  explicit FederatedCatalog(const Cluster* cluster) : cluster_(cluster) {}
  Result<SchemaPtr> GetSchema(const std::string& name) const override;
  bool Contains(const std::string& name) const override;
  /// Statistics from the first holder's catalog — includes fragment temps
  /// the coordinator registered mid-execution, which is how observed
  /// actuals feed back into later planning rounds.
  Result<TableStats> GetStats(const std::string& name) const override;

 private:
  const Cluster* cluster_;
};

class Coordinator {
 public:
  explicit Coordinator(Cluster* cluster, CoordinatorOptions options = {})
      : cluster_(cluster), options_(options), fed_catalog_(cluster) {}

  /// Plans and executes `plan` across the cluster; the result is delivered
  /// to the client tier (the paper: "the result of a query is a collection
  /// in the client environment"). Metrics (optional) cover this call only.
  Result<Dataset> Execute(const PlanPtr& plan, ExecutionMetrics* metrics = nullptr);

  /// E5 baseline: one remote call per operator, every intermediate routed
  /// back to the client and re-uploaded for the next call.
  Result<Dataset> ExecutePerOp(const PlanPtr& plan,
                               ExecutionMetrics* metrics = nullptr);

  /// Renders the placement decision for every node ("node @ server").
  Result<std::string> ExplainPlacement(const PlanPtr& plan);

  /// EXPLAIN ANALYZE: executes `plan` traced — through this thread's
  /// TaskContext, so concurrent queries stay untraced — and renders the
  /// recorded span tree
  /// — per fragment and operator: rows, bytes, wall/simulated ms, morsels,
  /// retries, and the server it ran on — followed by the call's profile,
  /// one line per stat group (QueryProfile::ToString). `metrics`, when
  /// given, receives the same per-call accounting Execute would report.
  Result<std::string> ExplainAnalyze(const PlanPtr& plan,
                                     ExecutionMetrics* metrics = nullptr);

  /// Trace id of the most recent (traced) Execute on this coordinator;
  /// 0 when tracing was disabled. Pass to telemetry::ToChromeTraceJson /
  /// ExplainAnalyze to select exactly that query's spans.
  uint64_t last_trace_id() const { return last_trace_id_; }

  const CoordinatorOptions& options() const { return options_; }
  void set_options(const CoordinatorOptions& o) { options_ = o; }

  /// What the optimizer did during the most recent Prepare (Execute /
  /// ExecutePerOp / Explain*): pass counters plus the estimated root
  /// cardinality. Zeroed when options().optimize is false.
  const OptimizerStats& last_optimizer_stats() const {
    return last_optimizer_stats_;
  }

 private:
  struct Placement {
    std::map<const Plan*, std::string> assign;  // "" = flexible
    std::set<const Plan*> client_loops;         // Iterates driven client-side
  };

  /// Drops all registered temps when an execution scope exits, so failed or
  /// aborted executions never leak server-side state.
  struct TempGuard {
    explicit TempGuard(Coordinator* c) : coordinator(c) {}
    ~TempGuard() { coordinator->DropTemps(); }
    TempGuard(const TempGuard&) = delete;
    TempGuard& operator=(const TempGuard&) = delete;
    Coordinator* coordinator;
  };

  Result<PlanPtr> Prepare(const PlanPtr& plan);
  Result<std::string> AssignServers(const PlanPtr& plan, Placement* placement);
  /// Rough output-size estimate (bytes) used as the ship-less tiebreak in
  /// placement when cost_based_placement is off: prefer hosting an operator
  /// where its bulkier input lives.
  int64_t EstimateBytes(const Plan& plan) const;
  bool ServerSuits(const std::string& server, const Plan& node,
                   const std::vector<SchemaPtr>& child_schemas) const;
  int SpecRank(OpKind kind, const std::string& server) const;

  // Execution machinery (all counters flow through the transport).
  Result<Dataset> Run(const PlanPtr& plan, Placement* placement);
  Result<std::pair<std::string, std::string>> ExecToTemp(const Plan* node,
                                                         Placement* placement);
  Result<PlanPtr> BuildFragment(const Plan* node, const std::string& server,
                                Placement* placement);
  Result<Dataset> ShipAndRun(const std::string& server, const PlanPtr& fragment);
  /// Estimated output rows of `fragment` against the federated catalog
  /// (which sees temp stats, i.e. observed actuals), or -1 when the
  /// estimator cannot resolve a leaf. Only evaluated while tracing, to
  /// stamp est_rows (and thus q-error) onto fragment spans.
  int64_t EstimateFragmentRows(const Plan& fragment) const;
  /// Ships an already-serialized plan wire (plus optional dataset bindings)
  /// to `server`, going through the plan-cache envelope when enabled: a
  /// fingerprint this coordinator already shipped there travels as a
  /// %NXB1-EXEC reference, and a provider-side eviction (NotFound carrying
  /// kPlanCacheMissMarker) falls back to re-shipping the full plan.
  Result<Dataset> ShipWire(
      const std::string& server, const std::string& plan_wire, uint64_t fp,
      const std::vector<std::pair<std::string, std::string>>& bindings,
      int64_t est_rows = -1);
  /// Sends `data` over the negotiated wire for (from, to): serialized once,
  /// metered at its actual encoded size, decoded on arrival.
  Result<Dataset> SendData(const std::string& from, const std::string& to,
                           const Dataset& data);
  Result<Dataset> FetchToClient(const std::string& server, const std::string& temp);
  Result<std::string> RegisterTemp(const std::string& server, Dataset data);
  Status TransferTemp(const std::string& from, const std::string& to,
                      const std::string& temp);

  /// Serialize-once state for one client-driven loop: when the body (and
  /// measure) place whole on a single server, the loop variables are
  /// rewritten into Scans of per-loop binding names, the template wires and
  /// fingerprints are computed once, and every round ships only a cache
  /// reference plus the bindings that actually changed.
  struct LoopShip {
    bool probed = false;
    bool usable = false;
    std::string server;
    WireFormat format = WireFormat::kText;
    std::string curr_name, prev_name;
    std::string body_wire;
    uint64_t body_fp = 0;
    bool body_curr = false, body_prev = false;
    std::string measure_wire;
    uint64_t measure_fp = 0;
    bool measure_curr = false, measure_prev = false;
    /// What the provider's sticky binding cache holds per binding name (the
    /// last full value this loop successfully shipped, with its fingerprint
    /// chain) — the base a later round's prefix-extending value extends as a
    /// %NXB1-DELTA tail. `full_wire_bytes` tracks the size a full re-ship
    /// would have cost, for the delta_bytes_saved accounting.
    struct BoundBase {
      TablePtr table;
      uint64_t chain_fp = 0;
      int64_t full_wire_bytes = 0;
    };
    std::map<std::string, BoundBase> bound;
  };
  Result<Dataset> RunClientLoop(const Plan& iterate, Placement* placement);
  /// One body(+measure) round of a client-driven loop; updates *state.
  /// Returns true when the loop's convergence measure says stop.
  Result<bool> RunLoopStep(const IterateOp& op, Dataset* state, LoopShip* ship);
  /// Detects the single-server case and builds the reusable templates.
  void ProbeLoopShip(const IterateOp& op, const Dataset& state, LoopShip* ship);
  Result<bool> RunLoopStepShipped(const IterateOp& op, Dataset* state,
                                  LoopShip* ship);
  void DropTemps();

  /// Retry/backoff wrapper around Transport::TrySend, implementing
  /// options_.retry. On giving up, records the presumed-dead server in
  /// last_failed_server_ so Execute's failover loop can route around it.
  /// `*retries`, when given, is incremented once per resend.
  Status SendWithRetry(const std::string& from, const std::string& to,
                       int64_t bytes, MessageKind kind,
                       int64_t* retries = nullptr);
  /// Excludes last_failed_server_ from planning (failover) and invalidates
  /// memoized temps on it. Returns false when nothing can be excluded.
  bool ExcludeFailedServer();
  /// First registered server not excluded by failover.
  Result<std::string> AnyAvailableServer() const;
  /// Resolved thread budget: options_.thread_count, or the process-wide
  /// budget when 0.
  int EffectiveThreads() const;
  /// Cooperative cancellation checkpoint: OK unless options_.cancel fired
  /// (returns its status) or the simulated clock crossed
  /// options_.deadline_simulated_seconds (fires the token with kTimeout and
  /// returns that). Called at fragment, message, and loop boundaries.
  Status CheckCancelled();

  /// One Execute/ExecutePerOp call: its profile, whose spans are stamped
  /// with this cluster's simulated clock; the thread-budget gauge; fresh
  /// fault-recovery state; and the query span.
  class CallScope {
   public:
    CallScope(Coordinator* coordinator, const char* span_name);
    CallScope(const CallScope&) = delete;
    CallScope& operator=(const CallScope&) = delete;

    telemetry::SpanGuard& span() { return span_; }
    /// Fills `metrics`, when given, with the call's wall time, thread
    /// budget and profile.
    void Report(ExecutionMetrics* metrics) const;

   private:
    WallTimer timer_;
    int threads_;
    ScopedQuery query_;
    telemetry::SpanGuard span_;
  };

  /// Instruments that are not per-query stats (those go through
  /// telemetry::Count). Resolved once.
  struct Instruments {
    telemetry::Gauge* threads;
    telemetry::Histogram* backoff_seconds;
    telemetry::Histogram* fragment_plan_bytes;
    static Instruments Resolve();
  };

  Cluster* cluster_;
  CoordinatorOptions options_;
  FederatedCatalog fed_catalog_;
  OptimizerStats last_optimizer_stats_;
  Instruments ins_ = Instruments::Resolve();
  uint64_t last_trace_id_ = 0;
  int64_t temp_counter_ = 0;
  std::vector<std::pair<std::string, std::string>> temps_;  // (server, name)
  /// Serializes coordinator bookkeeping (temps, memo, counters, retry RNG)
  /// and all transport traffic when sibling fragments execute concurrently.
  /// Held only around that bookkeeping — never across Provider::ExecuteWire,
  /// so fragment compute genuinely overlaps. Recursive because dispatch
  /// nests (a fragment's child may itself fan out on the caller's thread).
  mutable std::recursive_mutex mu_;

  // Fault-recovery state, reset per Execute.
  Rng retry_rng_{17};
  std::set<std::string> excluded_;       // servers failed over away from
  std::string last_failed_server_;       // set when retries run out
  // Fragment results that survived a failed attempt: plan node -> (server,
  // temp). Only populated for the root placement, whose nodes stay alive
  // for the whole Execute; replanning resumes from these instead of
  // recomputing.
  std::map<const Plan*, std::pair<std::string, std::string>> done_;
  const Placement* root_placement_ = nullptr;

  // Plan-cache bookkeeping: which fingerprints this coordinator has already
  // shipped to each server. Mirrors the provider's FIFO capacity so the two
  // sides agree in steady state; divergence (a provider eviction we missed)
  // is repaired by the kPlanCacheMissMarker re-ship fallback. Kept across
  // Execute calls — that is where repeated-query hits come from.
  struct ShippedSet {
    std::set<uint64_t> fps;
    std::deque<uint64_t> order;
  };
  std::map<std::string, ShippedSet> shipped_;
  // Per-loop sequence for binding names; reset each Execute so re-running
  // the same plan regenerates identical template wires (and cache hits).
  int64_t loop_seq_ = 0;
};

}  // namespace nexus

#endif  // NEXUS_FEDERATION_COORDINATOR_H_
