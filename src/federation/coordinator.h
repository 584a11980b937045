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

#include "common/query_profile.h"
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
  /// pauses; exceeding it fails the fragment with kTimeout. 0 = the time
  /// left before the caller's deadline (TaskContext) when the call starts,
  /// or unlimited without one.
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
  uint64_t trace_id = 0;     // this call's spans; 0 when untraced
  OptimizerStats optimizer;  // what the optimizer did for this call

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

/// A Coordinator is fixed at construction and serves any number of calls at
/// once. Each Execute, ExecutePerOp and ExplainAnalyze builds a QueryRun
/// that owns all of the call's state:
///   - the cancel token and the absolute simulated deadline, read once from
///     the calling thread's TaskContext (the service's RunAttempt fills it
///     in; cancellation and deadlines travel nowhere else);
///   - a temp namespace leased from the Cluster for the call's lifetime.
///     Temps are "__frag_<position>" under index 0 and
///     "__frag_s<k>_<position>" under index k, so calls that run at once —
///     on this coordinator or on others sharing the cluster — never name
///     the same temp, and a lone call's names repeat run after run.
/// The coordinator keeps only what outlives a call: options, catalog,
/// instruments and the plan-cache mirror.
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

  const CoordinatorOptions& options() const { return options_; }

 private:
  /// One call's execution state (coordinator.cc).
  class QueryRun;

  struct Placement {
    std::map<const Plan*, std::string> assign;  // "" = flexible
    std::set<const Plan*> client_loops;         // Iterates driven client-side
    /// Each node's temp name: temp_prefix + its pre-order position.
    std::map<const Plan*, std::string> temp_name;
    std::string temp_prefix;
  };

  /// Type-checks against the federated catalog, then optimizes; `stats`
  /// receives what the optimizer did.
  Result<PlanPtr> Prepare(const PlanPtr& plan, OptimizerStats* stats) const;
  /// Places every node of `plan` on a server outside `excluded`.
  Result<std::string> AssignServers(const PlanPtr& plan,
                                    const std::set<std::string>& excluded,
                                    Placement* placement) const;
  /// Rough output-size estimate (bytes) used as the ship-less tiebreak in
  /// placement when cost_based_placement is off: prefer hosting an operator
  /// where its bulkier input lives.
  int64_t EstimateBytes(const Plan& plan) const;
  bool ServerSuits(const std::string& server, const Plan& node,
                   const std::vector<SchemaPtr>& child_schemas) const;
  int SpecRank(OpKind kind, const std::string& server) const;

  /// Instruments that are not per-query stats (those go through
  /// telemetry::Count). Resolved once.
  struct Instruments {
    telemetry::Gauge* threads;
    telemetry::Histogram* backoff_seconds;
    telemetry::Histogram* fragment_plan_bytes;
    static Instruments Resolve();
  };

  Cluster* const cluster_;
  const CoordinatorOptions options_;
  FederatedCatalog fed_catalog_;
  Instruments ins_ = Instruments::Resolve();

  // Plan-cache bookkeeping: which fingerprints this coordinator has already
  // shipped to each server. Mirrors the provider's FIFO capacity so the two
  // sides agree in steady state; divergence (a provider eviction we missed)
  // is repaired by the kPlanCacheMissMarker re-ship fallback. Kept across
  // calls — that is where repeated-query hits come from — and guarded by
  // shipped_mu_, since concurrent calls and sibling fragments ship at once.
  struct ShippedSet {
    std::set<uint64_t> fps;
    std::deque<uint64_t> order;
  };
  std::mutex shipped_mu_;
  std::map<std::string, ShippedSet> shipped_;
};

}  // namespace nexus

#endif  // NEXUS_FEDERATION_COORDINATOR_H_
