#include "federation/coordinator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "common/parallel.h"
#include "common/query_profile.h"
#include "common/random.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/schema_inference.h"
#include "core/serialize.h"
#include "optimizer/cardinality.h"
#include "telemetry/explain.h"
#include "telemetry/telemetry.h"

namespace nexus {

std::string ExecutionMetrics::ToString() const {
  std::string out = StrCat(
      "wall=", FormatDouble(wall_seconds * 1e3, 4),
      "ms  sim=", FormatDouble(profile.simulated_seconds() * 1e3, 4),
      "ms  threads=", threads_used);
  const std::string stats = profile.ToString("  ");
  if (!stats.empty()) out += StrCat("  ", stats);
  return out;
}

Coordinator::Instruments Coordinator::Instruments::Resolve() {
  auto& reg = telemetry::MetricsRegistry::Global();
  return Instruments{
      reg.gauge("coordinator.threads"),
      reg.histogram("coordinator.backoff_seconds"),
      reg.histogram("coordinator.fragment_plan_bytes"),
  };
}

/// One Execute / ExecutePerOp call: the cancel token and deadline of the
/// caller's TaskContext; the temp namespace leased from the cluster; its
/// profile, whose spans are stamped with this cluster's simulated clock; the
/// query span; the thread budget; the fault-recovery state; and every temp
/// the call registers. When the run ends it drops those temps, so failed or
/// aborted executions never leak server-side state, returns the namespace,
/// and then fills `metrics`, when given.
class Coordinator::QueryRun {
 public:
  QueryRun(Coordinator* c, const char* span_name, ExecutionMetrics* metrics);
  ~QueryRun();
  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  Result<Dataset> Execute(const PlanPtr& plan);
  Result<Dataset> ExecutePerOp(const PlanPtr& plan);

 private:
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

  /// Plans `plan` around the servers failed over away from.
  Status Assign(const PlanPtr& plan, std::string temp_prefix,
                Placement* placement) {
    std::set<std::string> excluded;
    {
      std::lock_guard<std::mutex> lock(mu_);
      excluded = excluded_;
    }
    placement->temp_prefix = std::move(temp_prefix);
    return c_->AssignServers(plan, excluded, placement).status();
  }
  Result<Dataset> Run(const PlanPtr& plan, Placement* placement);
  Result<std::pair<std::string, std::string>> ExecToTemp(const Plan* node,
                                                         Placement* placement);
  Result<PlanPtr> BuildFragment(const Plan* node, const std::string& server,
                                Placement* placement);
  Result<Dataset> ShipAndRun(const std::string& server, const PlanPtr& fragment);
  /// Ships an already-serialized plan wire (plus optional dataset bindings)
  /// to `server`, going through the plan-cache envelope when enabled: a
  /// fingerprint the coordinator already shipped there travels as a
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
  /// ExecToTemp, then fetches the temp to the client.
  Result<Dataset> ExecToClient(const Plan* node, Placement* placement) {
    NEXUS_ASSIGN_OR_RETURN(auto loc, ExecToTemp(node, placement));
    NEXUS_ASSIGN_OR_RETURN(
        Dataset d, cluster_->provider(loc.first)->catalog()->Get(loc.second));
    return SendData(loc.first, kClientNode, d);
  }
  Status RegisterTemp(const std::string& server, const std::string& name,
                      Dataset data) {
    std::lock_guard<std::mutex> lock(mu_);
    NEXUS_RETURN_NOT_OK(
        cluster_->provider(server)->catalog()->Put(name, std::move(data)));
    temps_.emplace_back(server, name);
    return Status::OK();
  }
  Status TransferTemp(const std::string& from, const std::string& to,
                      const std::string& temp);

  /// Drives a client-side Iterate; body temps add the round to its name.
  Result<Dataset> RunClientLoop(const Plan& iterate, Placement* placement);
  /// One body(+measure) round of a client-driven loop; updates *state.
  /// Returns true when the loop's convergence measure says stop.
  Result<bool> RunLoopStep(const IterateOp& op, const std::string& round,
                           Dataset* state, LoopShip* ship);
  /// Detects the single-server case and builds the reusable templates.
  void ProbeLoopShip(const IterateOp& op, const Dataset& state, LoopShip* ship);
  Result<bool> RunLoopStepShipped(const IterateOp& op, Dataset* state,
                                  LoopShip* ship);

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
  Result<std::string> AnyAvailableServer() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& s : cluster_->ServerNames()) {
      if (excluded_.count(s) == 0) return s;
    }
    return Status::Unavailable("no server available");
  }
  /// Cooperative cancellation checkpoint: OK unless cancel_ fired (returns
  /// its status) or the simulated clock crossed deadline_ (fires the token
  /// with kTimeout and returns that). Called at fragment, message, and loop
  /// boundaries.
  Status CheckCancelled();
  bool Cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }

  Coordinator* const c_;
  Cluster* const cluster_;
  const CoordinatorOptions& options_;
  ExecutionMetrics* const metrics_;
  WallTimer timer_;
  const int threads_;
  /// The leased namespace index and the name prefix it stands for: "" for
  /// index 0, "s<k>_" for index k.
  const int ns_;
  const std::string ns_prefix_;
  ScopedQuery query_;  // inherits the caller's TaskContext
  telemetry::SpanGuard span_;
  CancelToken* const cancel_;  // the caller's; may be null
  const double deadline_;      // absolute simulated seconds; 0 = none
  /// options_.retry.fragment_timeout_seconds, or the time left before the
  /// deadline when that is 0.
  const double fragment_timeout_;
  OptimizerStats optimizer_stats_;

  /// Guards the bookkeeping below and serializes this call's transport
  /// traffic when sibling fragments execute concurrently. Held only around
  /// that bookkeeping — never across Provider::ExecuteWire, so fragment
  /// compute genuinely overlaps — and never nested.
  std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> temps_;  // (server, name)
  Rng retry_rng_;
  std::set<std::string> excluded_;  // servers failed over away from
  std::string last_failed_server_;  // set when retries run out
  // Fragment results that survived a failed attempt: plan node -> (server,
  // temp). Only populated for the root placement, whose nodes stay alive
  // for the whole call; replanning resumes from these instead of
  // recomputing.
  std::map<const Plan*, std::pair<std::string, std::string>> done_;
  const Placement* root_placement_ = nullptr;
  // Per-loop sequence for binding names, so re-running the same plan
  // regenerates identical template wires (and cache hits).
  int64_t loop_seq_ = 0;
};

Coordinator::QueryRun::QueryRun(Coordinator* c, const char* span_name,
                                ExecutionMetrics* metrics)
    : c_(c),
      cluster_(c->cluster_),
      options_(c->options_),
      metrics_(metrics),
      threads_(c->options_.thread_count <= 0
                   ? GetThreadCount()
                   : std::min(c->options_.thread_count, kMaxThreads)),
      ns_(cluster_->LeaseNamespace()),
      ns_prefix_(ns_ == 0 ? std::string() : StrCat("s", ns_, "_")),
      query_(/*trace=*/false,
             [t = c->cluster_->transport()] {
               return t->simulated_seconds();
             }),
      span_(telemetry::kCategoryCoordinator, span_name),
      cancel_(query_.context().cancel),
      deadline_(query_.context().deadline_simulated_seconds),
      fragment_timeout_(
          options_.retry.fragment_timeout_seconds > 0.0 || deadline_ <= 0.0
              ? options_.retry.fragment_timeout_seconds
              : std::max(0.0, deadline_ -
                                  cluster_->transport()->simulated_seconds())),
      retry_rng_(c->options_.retry.jitter_seed) {
  c->ins_.threads->Set(static_cast<double>(threads_));
  if (metrics_ != nullptr) *metrics_ = ExecutionMetrics();  // this call only
}

Coordinator::QueryRun::~QueryRun() {
  for (const auto& [server, name] : temps_) {
    if (Provider* p = cluster_->provider(server)) (void)p->catalog()->Drop(name);
  }
  cluster_->ReleaseNamespace(ns_);
  if (metrics_ == nullptr) return;
  metrics_->wall_seconds = timer_.ElapsedSeconds();
  metrics_->threads_used = threads_;
  metrics_->profile = query_.profile();
  metrics_->trace_id = span_.active() ? span_.trace() : 0;
  metrics_->optimizer = optimizer_stats_;
}

Result<SchemaPtr> FederatedCatalog::GetSchema(const std::string& name) const {
  std::vector<std::string> holders = cluster_->HoldersOf(name);
  if (holders.empty()) {
    return Status::NotFound(StrCat("no server holds '", name, "'"));
  }
  return cluster_->provider(holders[0])->catalog().GetSchema(name);
}

bool FederatedCatalog::Contains(const std::string& name) const {
  return !cluster_->HoldersOf(name).empty();
}

Result<TableStats> FederatedCatalog::GetStats(const std::string& name) const {
  std::vector<std::string> holders = cluster_->HoldersOf(name);
  if (holders.empty()) {
    return Status::NotFound(StrCat("no server holds '", name, "'"));
  }
  return cluster_->provider(holders[0])->catalog().GetStats(name);
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

int Coordinator::SpecRank(OpKind kind, const std::string& server) const {
  const Provider* p = cluster_->provider(server);
  if (p == nullptr) return 99;
  std::string pname = p->name();
  if (pname == "reference") return 90;  // always the backstop
  switch (kind) {
    case OpKind::kMatMul:
    case OpKind::kElemWise:
      if (pname == "linalg") return 0;
      if (pname == "arraydb") return 2;
      if (pname == "relstore") return 5;
      break;
    case OpKind::kTranspose:
      if (pname == "arraydb") return 1;
      if (pname == "linalg") return 2;
      if (pname == "relstore") return 3;
      break;
    case OpKind::kPageRank:
      if (pname == "graphd") return 0;
      if (pname == "relstore") return 10;
      break;
    case OpKind::kSlice:
    case OpKind::kShift:
    case OpKind::kRegrid:
    case OpKind::kWindow:
      if (pname == "arraydb") return 0;
      if (pname == "relstore") return 3;
      break;
    default:
      if (pname == "relstore") return 1;
      if (pname == "arraydb") return 4;
      break;
  }
  return 50;
}

bool Coordinator::ServerSuits(const std::string& server, const Plan& node,
                              const std::vector<SchemaPtr>& child_schemas) const {
  const Provider* p = cluster_->provider(server);
  if (p == nullptr || !p->Claims(node.kind())) return false;
  std::string pname = p->name();
  if (pname == "arraydb") {
    // The array engine evaluates on the array representation: every input
    // must carry dimensions — except Rebox, whose input is a plain table,
    // and leaves.
    if (node.kind() == OpKind::kRebox || node.num_children() == 0) return true;
    for (const SchemaPtr& s : child_schemas) {
      if (s->DimensionIndices().empty()) return false;
    }
    return true;
  }
  if (pname == "linalg") {
    if (node.num_children() == 0 || node.kind() == OpKind::kExchange) return true;
    for (const SchemaPtr& s : child_schemas) {
      if (s->DimensionIndices().size() != 2 || s->AttributeIndices().size() != 1) {
        return false;
      }
      if (!IsNumeric(s->field(s->AttributeIndices()[0]).type)) return false;
    }
    if (node.kind() == OpKind::kElemWise) {
      // linalg's elemwise kernel is float64-only.
      for (const SchemaPtr& s : child_schemas) {
        if (s->field(s->AttributeIndices()[0]).type != DataType::kFloat64) {
          return false;
        }
      }
    }
    if (node.kind() == OpKind::kTranspose) {
      // Only the plain 2-d swap.
      const auto& order = node.As<TransposeOp>().dim_order;
      const SchemaPtr& s = child_schemas[0];
      std::vector<int> d = s->DimensionIndices();
      if (order.size() != 2 || order[0] != s->field(d[1]).name ||
          order[1] != s->field(d[0]).name) {
        return false;
      }
    }
    return true;
  }
  return true;
}

int64_t Coordinator::EstimateBytes(const Plan& plan) const {
  switch (plan.kind()) {
    case OpKind::kScan: {
      std::vector<std::string> holders =
          cluster_->HoldersOf(plan.As<ScanOp>().table);
      if (holders.empty()) return 0;
      auto d = cluster_->provider(holders[0])->catalog()->Get(
          plan.As<ScanOp>().table);
      return d.ok() ? d.ValueOrDie().ByteSize() : 0;
    }
    case OpKind::kValues:
      return plan.As<ValuesOp>().data.ByteSize();
    case OpKind::kLoopVar:
      return 0;  // unknown until runtime
    default:
      break;
  }
  int64_t in = 0;
  for (const PlanPtr& c : plan.children()) in += EstimateBytes(*c);
  switch (plan.kind()) {
    case OpKind::kSelect:
      return in / 2;  // default selectivity guess
    case OpKind::kAggregate:
    case OpKind::kRegrid:
      return in / 10;  // grouping collapses
    case OpKind::kLimit:
      return std::min<int64_t>(in, plan.As<LimitOp>().limit * 64);
    case OpKind::kDistinct:
      return in / 2;
    case OpKind::kIterate:
      return EstimateBytes(*plan.child(0));  // schema-preserving fixpoint
    default:
      return in;  // schema-/cardinality-preserving or unknown
  }
}

Result<std::string> Coordinator::AssignServers(
    const PlanPtr& plan, const std::set<std::string>& excluded,
    Placement* placement) const {
  InferContext ctx;
  ctx.catalog = &fed_catalog_;
  // Stats-based wire-byte estimates for cost-based placement. One memoizing
  // estimator per planning pass: sibling candidates share subtrees.
  CardinalityEstimator wire_est(&fed_catalog_);

  int64_t next_position = 0;
  std::function<Result<std::string>(const PlanPtr&)> assign =
      [&](const PlanPtr& node) -> Result<std::string> {
    placement->temp_name.emplace(
        node.get(), StrCat(placement->temp_prefix, next_position++));
    // Leaves.
    if (node->kind() == OpKind::kScan) {
      const std::string& table = node->As<ScanOp>().table;
      std::vector<std::string> holders = cluster_->HoldersOf(table);
      if (holders.empty()) {
        return Status::NotFound(StrCat("no server holds '", table, "'"));
      }
      // First holder not failed over away from; replicas (Cluster::
      // Replicate) make this the redundancy failover routes through.
      for (const std::string& h : holders) {
        if (excluded.count(h) != 0) continue;
        placement->assign[node.get()] = h;
        return h;
      }
      return Status::Unavailable(
          StrCat("every holder of '", table, "' is unavailable"));
    }
    if (node->kind() == OpKind::kValues || node->kind() == OpKind::kLoopVar) {
      placement->assign[node.get()] = "";  // flexible: adopts its consumer
      return std::string();
    }

    // Children first.
    std::vector<std::string> child_servers;
    std::vector<SchemaPtr> child_schemas;
    for (const PlanPtr& c : node->children()) {
      NEXUS_ASSIGN_OR_RETURN(std::string s, assign(c));
      child_servers.push_back(std::move(s));
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr cs, InferSchema(*c, &ctx));
      child_schemas.push_back(std::move(cs));
    }

    // Iterate: try to place the whole loop on one provider.
    if (node->kind() == OpKind::kIterate) {
      std::string preferred;
      for (const std::string& s : child_servers) {
        if (!s.empty()) preferred = s;
      }
      if (options_.provider_side_iteration) {
        std::string best;
        int best_rank = 1000;
        for (const std::string& s : cluster_->ServerNames()) {
          if (excluded.count(s) != 0) continue;
          if (!cluster_->provider(s)->ClaimsTree(*node)) continue;
          int rank = SpecRank(OpKind::kIterate, s) - (s == preferred ? 100 : 0);
          if (rank < best_rank) {
            best_rank = rank;
            best = s;
          }
        }
        if (!best.empty()) {
          placement->assign[node.get()] = best;
          return best;
        }
      }
      placement->client_loops.insert(node.get());
      placement->assign[node.get()] = kClientNode;
      return std::string(kClientNode);
    }

    // Regular operator: candidates are suitable servers. Score layers, most
    // significant first: locality beats specialization rank, which beats the
    // wire-byte tiebreak. With cost_based_placement the tiebreak charges
    // each candidate the estimated bytes it must pull across the wire
    // (catalog statistics × NXB1 column widths); otherwise the legacy
    // bulkier-input credit applies.
    bool intent_like = node->kind() == OpKind::kMatMul ||
                       node->kind() == OpKind::kPageRank ||
                       node->kind() == OpKind::kWindow;
    std::vector<int64_t> child_bytes(node->children().size(), 0);
    int64_t total_child_bytes = 0;
    for (size_t i = 0; i < node->children().size(); ++i) {
      child_bytes[i] = -1;
      if (options_.cost_based_placement) {
        auto est = wire_est.Estimate(*node->children()[i]);
        if (est.ok()) {
          child_bytes[i] = static_cast<int64_t>(est.ValueOrDie().Bytes());
        }
      }
      // Legacy byte-size heuristic when cost-based placement is off or the
      // child is inestimable (e.g. a loop binding only the remote end knows).
      if (child_bytes[i] < 0) child_bytes[i] = EstimateBytes(*node->children()[i]);
      total_child_bytes += child_bytes[i];
    }
    std::string best;
    int64_t best_score = std::numeric_limits<int64_t>::max();
    for (const std::string& s : cluster_->ServerNames()) {
      if (excluded.count(s) != 0) continue;
      if (!ServerSuits(s, *node, child_schemas)) continue;
      int64_t score = static_cast<int64_t>(SpecRank(node->kind(), s)) * 1000000;
      bool local = false;
      int64_t local_bytes = 0;
      for (size_t i = 0; i < child_servers.size(); ++i) {
        if (child_servers[i] == s) {
          local = true;
          local_bytes += child_bytes[i];
        }
      }
      // Locality dominates unless this is an intent op and the coordinator
      // prefers specialists (desideratum 3 pays off only if the plan
      // actually reaches the specialist).
      if (local && !(intent_like && options_.prefer_specialist)) {
        score -= 1000000000;
      }
      // Wire-byte tiebreak, bounded below one rank step.
      if (options_.cost_based_placement) {
        // Charge what this candidate would have to pull over.
        score += std::min<int64_t>((total_child_bytes - local_bytes) / 64, 900000);
      } else {
        // Legacy: credit the host of the bulkier input.
        score -= std::min<int64_t>(local_bytes / 64, 900000);
      }
      if (score < best_score) {
        best_score = score;
        best = s;
      }
    }
    if (best.empty()) {
      return Status::PlanError(
          StrCat("no server can execute ", node->NodeLabel()));
    }
    placement->assign[node.get()] = best;
    return best;
  };
  return assign(plan);
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

Result<PlanPtr> Coordinator::Prepare(const PlanPtr& plan,
                                     OptimizerStats* stats) const {
  NEXUS_RETURN_NOT_OK(InferSchema(*plan, fed_catalog_).status());
  if (!options_.optimize) return plan;
  return Optimize(plan, fed_catalog_, options_.optimizer, stats);
}

Status Coordinator::QueryRun::CheckCancelled() {
  if (Cancelled()) return cancel_->status();
  if (deadline_ > 0.0 &&
      cluster_->transport()->simulated_seconds() > deadline_) {
    Status timeout = Status::Timeout(StrCat(
        "deadline of ", FormatDouble(deadline_, 3), "s (simulated) exceeded"));
    if (cancel_ != nullptr) {
      // Fire the token so engine morsel loops drain too, then report
      // whatever the token holds (a concurrent governor kill wins the race
      // and its status is the one the client should see).
      cancel_->Cancel(StatusCode::kTimeout, timeout.ToString());
      return cancel_->status();
    }
    return timeout;
  }
  return Status::OK();
}

Status Coordinator::QueryRun::SendWithRetry(const std::string& from,
                                            const std::string& to,
                                            int64_t bytes, MessageKind kind,
                                            int64_t* retries) {
  NEXUS_RETURN_NOT_OK(CheckCancelled());
  // The transport is a single-client simulation (clock, counters, fault
  // schedule): all traffic is serialized here even when sibling fragments
  // execute concurrently. Compute (ExecuteWire) stays outside this lock.
  std::lock_guard<std::mutex> lock(mu_);
  Transport* t = cluster_->transport();
  const RetryPolicy& rp = options_.retry;
  const int attempts = std::max(1, rp.max_attempts);
  double spent = 0.0;  // simulated seconds charged to this message
  double backoff = rp.initial_backoff_seconds;
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      double jitter =
          1.0 + rp.jitter_fraction * (2.0 * retry_rng_.NextDouble() - 1.0);
      double pause = backoff * jitter;
      backoff *= rp.backoff_multiplier;
      if (fragment_timeout_ > 0.0 && spent + pause > fragment_timeout_) {
        telemetry::Count(QueryStat::kTimeouts);
        last_failed_server_ = to != kClientNode ? to : from;
        return Status::Timeout(
            StrCat("fragment budget of ", FormatDouble(fragment_timeout_, 3),
                   "s exhausted after ", attempt, " attempts ", from, " -> ",
                   to));
      }
      double backoff_start = t->simulated_seconds();
      t->AdvanceTime(pause);  // backoff waits past scripted down windows
      spent += pause;
      telemetry::Count(QueryStat::kRetries);
      if (retries != nullptr) ++*retries;
      c_->ins_.backoff_seconds->Record(pause);
      if (telemetry::Enabled()) {
        telemetry::RecordComplete(telemetry::kCategoryCoordinator,
                                  StrCat("retry ", from, "->", to), "",
                                  backoff_start, pause,
                                  {{"attempt", attempt}});
      }
    }
    double seconds = 0.0;
    last = t->TrySend(from, to, bytes, kind, &seconds);
    spent += seconds;
    if (last.ok() || !IsRetryable(last)) return last;
  }
  // Out of attempts: blame the server end of the link so Execute's failover
  // loop can replan around it (a down endpoint is a certain culprit).
  if (from != kClientNode && t->IsDown(from)) {
    last_failed_server_ = from;
  } else {
    last_failed_server_ = to != kClientNode ? to : from;
  }
  return last;
}

bool Coordinator::QueryRun::ExcludeFailedServer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (last_failed_server_.empty()) return false;
  // Never exclude the last surviving server.
  if (excluded_.size() + 1 >= cluster_->ServerNames().size()) return false;
  if (!excluded_.insert(last_failed_server_).second) {
    last_failed_server_.clear();
    return false;  // already routed around it once; the failure is elsewhere
  }
  std::string failed = std::move(last_failed_server_);
  last_failed_server_.clear();
  telemetry::Count(QueryStat::kFailovers);
  if (telemetry::Enabled()) {
    telemetry::RecordComplete(telemetry::kCategoryCoordinator,
                              StrCat("failover away from ", failed), "",
                              cluster_->transport()->simulated_seconds(), 0.0,
                              {});
  }
  // Temps on the dead server are unreachable; drop their memo entries so
  // the re-run recomputes them on a survivor.
  for (auto it = done_.begin(); it != done_.end();) {
    if (excluded_.count(it->second.first) != 0) {
      it = done_.erase(it);
    } else {
      ++it;
    }
  }
  return true;
}

Result<Dataset> Coordinator::QueryRun::ShipAndRun(const std::string& server,
                                                  const PlanPtr& fragment) {
  // Serialize the whole expression tree and ship it — the LINQ property.
  // The encoding is negotiated per link: NXB1 blobs for embedded datasets
  // when both ends speak it, the legacy textual form otherwise.
  WireFormat fmt =
      cluster_->transport()->NegotiatedFormat(kClientNode, server);
  std::string wire = SerializePlanWire(*fragment, fmt);
  // While tracing, fragment spans carry the estimated output rows against
  // the federated catalog (which sees temp stats, i.e. observed actuals),
  // and thus a q-error; -1 when the estimator cannot resolve a leaf.
  int64_t est_rows = -1;
  if (telemetry::Enabled()) {
    auto est = EstimateCardinality(*fragment, c_->fed_catalog_);
    if (est.ok()) est_rows = std::llround(est.ValueOrDie());
  }
  return ShipWire(server, wire, FingerprintWire(wire), {}, est_rows);
}

Result<Dataset> Coordinator::QueryRun::ShipWire(
    const std::string& server, const std::string& plan_wire, uint64_t fp,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    int64_t est_rows) {
  const bool cache = options_.plan_cache && fp != 0;
  bool have = false;
  if (cache) {
    std::lock_guard<std::mutex> lock(c_->shipped_mu_);
    auto it = c_->shipped_.find(server);
    have = it != c_->shipped_.end() && it->second.fps.count(fp) != 0;
  }
  telemetry::SpanGuard span(telemetry::kCategoryCoordinator,
                            StrCat("fragment -> ", server), server);
  Provider* p = cluster_->provider(server);
  if (p == nullptr) return Status::NotFound(StrCat("no server '", server, "'"));
  // Two passes at most: an %NXB1-EXEC reference the provider has evicted
  // comes back as NotFound + kPlanCacheMissMarker, and the second pass
  // re-ships the full plan.
  Result<Dataset> result = Status::NotFound("unsent");
  for (int pass = 0; pass < 2; ++pass) {
    std::string wire;
    if (!cache) {
      wire = plan_wire;  // legacy framing: the bare serialized plan
    } else if (have) {
      wire = BuildWireEnvelope(WireEnvelope::Kind::kExecCached, fp, bindings,
                               std::string_view());
    } else {
      wire = BuildWireEnvelope(WireEnvelope::Kind::kPlanStore, fp, bindings,
                               plan_wire);
    }
    if (span.active()) {
      // Context rides inside the plan message, so the receiver's spans
      // stitch under this fragment. The header bytes are metered like any
      // payload.
      wire.insert(0, telemetry::WireHeader(span.trace(), span.id(), server));
    }
    c_->ins_.fragment_plan_bytes->Record(static_cast<double>(wire.size()));
    int64_t retries = 0;
    NEXUS_RETURN_NOT_OK(SendWithRetry(kClientNode, server,
                                      static_cast<int64_t>(wire.size()),
                                      MessageKind::kPlan, &retries));
    telemetry::Count(QueryStat::kFragments);
    result = p->ExecuteWire(wire);
    if (span.active()) {
      span.AddCounter("plan_bytes", static_cast<int64_t>(wire.size()));
      if (retries > 0) span.AddCounter("retries", retries);
      if (result.ok()) {
        span.AddCounter("rows", result.ValueOrDie().num_rows());
        span.AddCounter("bytes", result.ValueOrDie().ByteSize());
        // Planner's guess next to the actual; EXPLAIN ANALYZE turns the
        // pair into a per-fragment q-error.
        if (est_rows >= 0) span.AddCounter("est_rows", est_rows);
      }
    }
    if (have && !result.ok() &&
        result.status().code() == StatusCode::kNotFound &&
        result.status().message().find(kPlanCacheMissMarker) !=
            std::string::npos) {
      // The provider evicted this fingerprint: forget it here too and send
      // the whole plan again (one extra round trip, never a wrong answer).
      std::lock_guard<std::mutex> lock(c_->shipped_mu_);
      ShippedSet& s = c_->shipped_[server];
      s.fps.erase(fp);
      for (auto it = s.order.begin(); it != s.order.end(); ++it) {
        if (*it == fp) {
          s.order.erase(it);
          break;
        }
      }
      have = false;
      continue;
    }
    break;
  }
  if (cache && have && result.ok()) {
    // The reference resolved: the plan body never traveled this time.
    telemetry::Count(QueryStat::kWireBytesSaved,
                     static_cast<int64_t>(plan_wire.size()));
  }
  if (cache && !have && result.ok()) {
    // The provider parsed and cached this fingerprint; reference it from
    // now on. FIFO-bounded exactly like the provider side.
    std::lock_guard<std::mutex> lock(c_->shipped_mu_);
    ShippedSet& s = c_->shipped_[server];
    if (s.fps.insert(fp).second) {
      s.order.push_back(fp);
      if (s.order.size() > Provider::kPlanCacheCapacity) {
        s.fps.erase(s.order.front());
        s.order.pop_front();
      }
    }
  }
  if (!result.ok()) {
    return result.status().WithContext(StrCat("at server ", server));
  }
  return result;
}

Result<Dataset> Coordinator::QueryRun::SendData(const std::string& from,
                                                const std::string& to,
                                                const Dataset& data) {
  // Real serialization end to end: encoded once in the link's negotiated
  // format, metered at the actual encoded size, decoded on arrival. Evicted
  // chunks page in first, so a failed page-in is an error, not a short
  // encoding.
  if (data.is_array()) NEXUS_RETURN_NOT_OK(data.array()->EnsureAllResident());
  std::string wire =
      SerializeDatasetWire(data, cluster_->transport()->NegotiatedFormat(from, to));
  NEXUS_RETURN_NOT_OK(SendWithRetry(from, to, static_cast<int64_t>(wire.size()),
                                    MessageKind::kData));
  return ParseDatasetWire(wire);
}

Status Coordinator::QueryRun::TransferTemp(const std::string& from,
                                           const std::string& to,
                                           const std::string& temp) {
  NEXUS_ASSIGN_OR_RETURN(Dataset d, cluster_->provider(from)->catalog()->Get(temp));
  // One encode at the source; the relay forwards the same bytes, so both
  // hops meter the identical payload size.
  if (d.is_array()) NEXUS_RETURN_NOT_OK(d.array()->EnsureAllResident());
  std::string wire = SerializeDatasetWire(
      d, cluster_->transport()->NegotiatedFormat(from, to));
  int64_t bytes = static_cast<int64_t>(wire.size());
  if (options_.transfer_mode == TransferMode::kDirect) {
    // Desideratum 4: server → server, never touching the client tier.
    NEXUS_RETURN_NOT_OK(SendWithRetry(from, to, bytes, MessageKind::kData));
  } else {
    NEXUS_RETURN_NOT_OK(
        SendWithRetry(from, kClientNode, bytes, MessageKind::kData));
    NEXUS_RETURN_NOT_OK(
        SendWithRetry(kClientNode, to, bytes, MessageKind::kData));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    temps_.emplace_back(to, temp);  // the copy needs cleanup too
  }
  NEXUS_ASSIGN_OR_RETURN(Dataset arrived, ParseDatasetWire(wire));
  return cluster_->provider(to)->catalog()->Put(temp, std::move(arrived));
}

Result<PlanPtr> Coordinator::QueryRun::BuildFragment(const Plan* node,
                                                     const std::string& server,
                                                     Placement* placement) {
  // A client-driven loop nested under a fragment: run it now, upload the
  // result to the fragment's server.
  if (placement->client_loops.count(node) != 0) {
    PlanPtr alias(node, [](const Plan*) {});
    NEXUS_ASSIGN_OR_RETURN(Dataset state, RunClientLoop(*alias, placement));
    NEXUS_ASSIGN_OR_RETURN(Dataset arrived,
                           SendData(kClientNode, server, state));
    const std::string temp = placement->temp_name.at(node);
    NEXUS_RETURN_NOT_OK(RegisterTemp(server, temp, std::move(arrived)));
    return Plan::Scan(temp);
  }
  const size_t nc = node->children().size();
  auto child_server = [&](size_t i) -> const std::string& {
    return placement->assign.at(node->children()[i].get());
  };
  std::vector<PlanPtr> children(nc);
  if (threads_ == 1) {
    // Exact legacy dispatch: children in order, one at a time. This is the
    // path the seeded-chaos trace invariant is promised on.
    for (size_t i = 0; i < nc; ++i) {
      const Plan* c = node->children()[i].get();
      const std::string& cs = child_server(i);
      if (cs.empty() || cs == server) {
        NEXUS_ASSIGN_OR_RETURN(children[i], BuildFragment(c, server, placement));
      } else {
        NEXUS_ASSIGN_OR_RETURN(auto produced, ExecToTemp(c, placement));
        NEXUS_RETURN_NOT_OK(TransferTemp(produced.first, server, produced.second));
        children[i] = Plan::Scan(produced.second);
      }
    }
    return node->WithChildren(std::move(children));
  }
  // Morsel-driven sibling dispatch: every child that needs its own fragment
  // (placed on a different server) becomes one task; tasks run concurrently
  // and write pre-assigned child slots, so the rebuilt tree is identical to
  // the sequential one. Errors are reported by lowest child index, making
  // the failure surfaced independent of completion order.
  std::vector<std::function<void()>> tasks;
  std::vector<Status> statuses(nc, Status::OK());
  for (size_t i = 0; i < nc; ++i) {
    const std::string& cs = child_server(i);
    if (cs.empty() || cs == server) continue;
    const Plan* c = node->children()[i].get();
    tasks.push_back([this, i, c, server, placement, &children, &statuses] {
      statuses[i] = [&]() -> Status {
        NEXUS_ASSIGN_OR_RETURN(auto produced, ExecToTemp(c, placement));
        NEXUS_RETURN_NOT_OK(TransferTemp(produced.first, server, produced.second));
        children[i] = Plan::Scan(produced.second);
        return Status::OK();
      }();
    });
  }
  if (tasks.size() > 1) {
    telemetry::Count(QueryStat::kParallelFragments,
                     static_cast<int64_t>(tasks.size()));
  }
  ParallelRun(tasks, threads_);
  for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);
  // Same-server children fold into this fragment on the caller's thread
  // (they may fan out recursively themselves).
  for (size_t i = 0; i < nc; ++i) {
    const std::string& cs = child_server(i);
    if (!cs.empty() && cs != server) continue;
    NEXUS_ASSIGN_OR_RETURN(
        children[i], BuildFragment(node->children()[i].get(), server, placement));
  }
  return node->WithChildren(std::move(children));
}

Result<std::pair<std::string, std::string>>
Coordinator::QueryRun::ExecToTemp(const Plan* node, Placement* placement) {
  // Failover resume: fragments already materialized on a surviving server
  // are reused instead of recomputed. Only the root placement memoizes —
  // its nodes stay alive for the whole call, while client-loop body trees
  // are rebuilt (and freed) every iteration.
  const bool memoize = placement == root_placement_;
  NEXUS_RETURN_NOT_OK(CheckCancelled());
  if (memoize) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = done_.find(node);
    if (it != done_.end()) return it->second;
  }
  std::string server = placement->assign.at(node);
  const std::string temp = placement->temp_name.at(node);
  if (server.empty()) {
    NEXUS_ASSIGN_OR_RETURN(server, AnyAvailableServer());
  }
  if (server == kClientNode) {
    // A top-level client loop: run it, keep the result at the client by
    // registering nowhere; callers transfer from "client" — model this by
    // uploading to the first server. (Only reachable when an Iterate is the
    // direct input of another fragment, which BuildFragment handles; this
    // path covers the root case.)
    PlanPtr alias(node, [](const Plan*) {});
    NEXUS_ASSIGN_OR_RETURN(Dataset state, RunClientLoop(*alias, placement));
    NEXUS_ASSIGN_OR_RETURN(server, AnyAvailableServer());
    NEXUS_ASSIGN_OR_RETURN(Dataset arrived,
                           SendData(kClientNode, server, state));
    NEXUS_RETURN_NOT_OK(RegisterTemp(server, temp, std::move(arrived)));
  } else {
    NEXUS_ASSIGN_OR_RETURN(PlanPtr fragment,
                           BuildFragment(node, server, placement));
    NEXUS_ASSIGN_OR_RETURN(Dataset result, ShipAndRun(server, fragment));
    NEXUS_RETURN_NOT_OK(RegisterTemp(server, temp, std::move(result)));
  }
  auto loc = std::make_pair(server, temp);
  if (memoize) {
    std::lock_guard<std::mutex> lock(mu_);
    done_[node] = loc;
  }
  return loc;
}

namespace {

// Replaces this scope's LoopVar leaves with inline data (does not descend
// into nested Iterate bodies, whose loop variables bind to the inner loop).
PlanPtr ReplaceLoopVars(const PlanPtr& plan, const Dataset& curr,
                        const Dataset& prev) {
  if (plan->kind() == OpKind::kLoopVar) {
    return Plan::Values(plan->As<LoopVarOp>().previous ? prev : curr);
  }
  std::vector<PlanPtr> children;
  children.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) {
    children.push_back(ReplaceLoopVars(c, curr, prev));
  }
  return plan->WithChildren(std::move(children));
}

// The serialize-once variant: loop variables become Scans of the per-loop
// binding names, so the template is state-independent and its wire (and
// fingerprint) can be reused every round. Records which variables the tree
// actually references, so unused bindings never travel.
PlanPtr BindLoopVars(const PlanPtr& plan, const std::string& curr_name,
                     const std::string& prev_name, bool* uses_curr,
                     bool* uses_prev) {
  if (plan->kind() == OpKind::kLoopVar) {
    if (plan->As<LoopVarOp>().previous) {
      *uses_prev = true;
      return Plan::Scan(prev_name);
    }
    *uses_curr = true;
    return Plan::Scan(curr_name);
  }
  std::vector<PlanPtr> children;
  children.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) {
    children.push_back(
        BindLoopVars(c, curr_name, prev_name, uses_curr, uses_prev));
  }
  return plan->WithChildren(std::move(children));
}

// True when `cur` starts with exactly the rows of `base`. Float64 cells
// compare by bit pattern (Column::Equals takes NaN for any number and -0.0
// for +0.0), together with validity; a delta binding must reproduce the
// prefix the provider holds bit for bit.
bool ExtendsBitwise(const Table& cur, const Table& base) {
  const int64_t n = base.num_rows();
  if (n > cur.num_rows() || !cur.schema()->Equals(*base.schema())) {
    return false;
  }
  for (int c = 0; c < base.num_columns(); ++c) {
    const Column& a = cur.column(c);
    const Column& b = base.column(c);
    if (a.type() != DataType::kFloat64) {
      if (!a.Slice(0, n).Equals(b)) return false;
      continue;
    }
    for (int64_t r = 0; r < n; ++r) {
      if (a.IsNull(r) != b.IsNull(r)) return false;
      const size_t i = static_cast<size_t>(r);
      if (!a.IsNull(r) && std::bit_cast<uint64_t>(a.doubles()[i]) !=
                              std::bit_cast<uint64_t>(b.doubles()[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void Coordinator::QueryRun::ProbeLoopShip(const IterateOp& op,
                                          const Dataset& state,
                                          LoopShip* ship) {
  ship->probed = true;
  ship->usable = false;
  if (!options_.plan_cache) return;
  // Placement is probed with the current state inlined (the template itself
  // scans binding names no catalog knows about). The fast path engages only
  // when the whole body — and measure — lands on one server; anything that
  // fragments across servers keeps the general per-round machinery.
  auto single_server = [&](const PlanPtr& tree) -> std::string {
    PlanPtr probe = ReplaceLoopVars(tree, state, state);
    Placement p;
    if (!Assign(probe, std::string(), &p).ok()) return std::string();
    if (!p.client_loops.empty()) return std::string();
    std::string server;
    for (const auto& [node, s] : p.assign) {
      if (s.empty()) continue;
      if (s == kClientNode) return std::string();
      if (!server.empty() && server != s) return std::string();
      server = s;
    }
    return server;
  };
  std::string server = single_server(op.body);
  if (server.empty()) return;
  if (op.measure != nullptr && single_server(op.measure) != server) return;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = loop_seq_++;
  }
  ship->curr_name = StrCat("__nxbind_", ns_prefix_, id, "_curr");
  ship->prev_name = StrCat("__nxbind_", ns_prefix_, id, "_prev");
  ship->format = cluster_->transport()->NegotiatedFormat(kClientNode, server);
  PlanPtr body = BindLoopVars(op.body, ship->curr_name, ship->prev_name,
                              &ship->body_curr, &ship->body_prev);
  ship->body_wire = SerializePlanWire(*body, ship->format);
  ship->body_fp = FingerprintWire(ship->body_wire);
  if (op.measure != nullptr) {
    PlanPtr measure = BindLoopVars(op.measure, ship->curr_name,
                                   ship->prev_name, &ship->measure_curr,
                                   &ship->measure_prev);
    ship->measure_wire = SerializePlanWire(*measure, ship->format);
    ship->measure_fp = FingerprintWire(ship->measure_wire);
  }
  ship->server = server;
  ship->usable = true;
}

Result<bool> Coordinator::QueryRun::RunLoopStepShipped(const IterateOp& op,
                                                       Dataset* state,
                                                       LoopShip* ship) {
  // Same message shape as the general path — one plan message out, one data
  // message back, per body and per measure — so seeded chaos schedules see
  // an identical decision sequence; only the byte counts shrink.
  //
  // A binding whose new value extends the last one this loop shipped (a
  // prefix in rows — the shape of a growing BFS frontier or an accumulating
  // fixpoint) travels as a %NXB1-DELTA tail against the provider's sticky
  // copy; a provider-side miss (evicted base or an interleaved chain)
  // re-ships the full value, never a wrong answer.
  struct BindUpdate {
    std::string name;
    LoopShip::BoundBase base;  // applied to ship->bound only on success
    bool was_delta = false;
    int64_t delta_rows = 0;
    int64_t bytes_saved = 0;
  };
  auto one_binding = [&](const std::string& name, const Dataset& data,
                         bool allow_delta, std::vector<BindUpdate>* updates)
      -> std::pair<std::string, std::string> {
    if (allow_delta && data.is_table()) {
      auto it = ship->bound.find(name);
      if (it != ship->bound.end()) {
        const TablePtr& base = it->second.table;
        const int64_t brows = base->num_rows();
        const TablePtr& cur = data.table();
        if (ExtendsBitwise(*cur, *base)) {
          TablePtr tail = cur->Slice(brows, cur->num_rows() - brows);
          std::string tail_wire =
              SerializeDatasetWire(Dataset(tail), ship->format);
          std::string wire =
              BuildDeltaBindingWire(brows, it->second.chain_fp, tail_wire);
          BindUpdate u;
          u.name = name;
          u.base.table = cur;
          u.base.chain_fp =
              ChainFingerprint(it->second.chain_fp, tail_wire);
          u.base.full_wire_bytes = it->second.full_wire_bytes +
                                   static_cast<int64_t>(tail_wire.size());
          u.was_delta = true;
          u.delta_rows = tail->num_rows();
          u.bytes_saved = std::max<int64_t>(
              0, u.base.full_wire_bytes - static_cast<int64_t>(wire.size()));
          updates->push_back(std::move(u));
          return {name, std::move(wire)};
        }
      }
    }
    std::string wire = SerializeDatasetWire(data, ship->format);
    if (data.is_table()) {
      BindUpdate u;
      u.name = name;
      u.base.table = data.table();
      u.base.chain_fp = ChainFingerprint(0, wire);
      u.base.full_wire_bytes = static_cast<int64_t>(wire.size());
      updates->push_back(std::move(u));
    }
    return {name, std::move(wire)};
  };
  auto ship_bound = [&](const std::string& plan_wire, uint64_t fp,
                        bool use_curr, bool use_prev, const Dataset& curr,
                        const Dataset& prev) -> Result<Dataset> {
    // Two passes at most, mirroring the plan-cache fallback: a delta the
    // provider cannot extend comes back NotFound + kDeltaBindingMissMarker
    // and the second pass sends the full values.
    Result<Dataset> result = Status::NotFound("unsent");
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<BindUpdate> updates;
      std::vector<std::pair<std::string, std::string>> b;
      bool any_delta = false;
      if (use_curr) {
        b.push_back(one_binding(ship->curr_name, curr, pass == 0, &updates));
      }
      if (use_prev) {
        b.push_back(one_binding(ship->prev_name, prev, pass == 0, &updates));
      }
      for (const BindUpdate& u : updates) any_delta |= u.was_delta;
      result = ShipWire(ship->server, plan_wire, fp, b);
      if (!result.ok() && any_delta &&
          result.status().code() == StatusCode::kNotFound &&
          result.status().message().find(kDeltaBindingMissMarker) !=
              std::string::npos) {
        // The provider lost (or never had) the base; forget ours too and
        // re-send everything whole.
        for (const BindUpdate& u : updates) ship->bound.erase(u.name);
        continue;
      }
      if (result.ok()) {
        for (BindUpdate& u : updates) {
          if (u.was_delta) {
            telemetry::Count(QueryStat::kDeltaBindings);
            telemetry::Count(QueryStat::kDeltaRowsShipped, u.delta_rows);
            telemetry::Count(QueryStat::kDeltaBytesSaved, u.bytes_saved);
          }
          ship->bound[u.name] = std::move(u.base);
        }
      }
      break;
    }
    return result;
  };
  NEXUS_ASSIGN_OR_RETURN(
      Dataset produced,
      ship_bound(ship->body_wire, ship->body_fp, ship->body_curr,
                 ship->body_prev, *state, *state));
  NEXUS_ASSIGN_OR_RETURN(Dataset next,
                         SendData(ship->server, kClientNode, produced));
  telemetry::Count(QueryStat::kClientLoopIterations);
  bool converged = false;
  if (op.measure != nullptr) {
    NEXUS_ASSIGN_OR_RETURN(
        Dataset measured_remote,
        ship_bound(ship->measure_wire, ship->measure_fp, ship->measure_curr,
                   ship->measure_prev, next, *state));
    NEXUS_ASSIGN_OR_RETURN(Dataset measured,
                           SendData(ship->server, kClientNode, measured_remote));
    NEXUS_ASSIGN_OR_RETURN(converged, MeasureConverged(measured, op.epsilon));
  }
  *state = std::move(next);
  return converged;
}

Result<bool> Coordinator::QueryRun::RunLoopStep(const IterateOp& op,
                                                const std::string& round,
                                                Dataset* state,
                                                LoopShip* ship) {
  if (!ship->probed) ProbeLoopShip(op, *state, ship);
  if (ship->usable) return RunLoopStepShipped(op, state, ship);
  // General path: each round trip re-plans and re-ships the body with the
  // current state inlined — the client-driven pattern the paper wants to
  // avoid. Needed whenever the body fragments across servers (or the plan
  // cache is off).
  PlanPtr body = ReplaceLoopVars(op.body, *state, *state);
  Placement body_placement;
  NEXUS_RETURN_NOT_OK(Assign(body, StrCat(round, "b_"), &body_placement));
  NEXUS_ASSIGN_OR_RETURN(Dataset next,
                         ExecToClient(body.get(), &body_placement));
  telemetry::Count(QueryStat::kClientLoopIterations);
  bool converged = false;
  if (op.measure != nullptr) {
    PlanPtr measure = ReplaceLoopVars(op.measure, next, *state);
    Placement m_placement;
    NEXUS_RETURN_NOT_OK(Assign(measure, StrCat(round, "m_"), &m_placement));
    NEXUS_ASSIGN_OR_RETURN(Dataset measured,
                           ExecToClient(measure.get(), &m_placement));
    NEXUS_ASSIGN_OR_RETURN(converged, MeasureConverged(measured, op.epsilon));
  }
  *state = std::move(next);
  return converged;
}

Result<Dataset> Coordinator::QueryRun::RunClientLoop(const Plan& iterate,
                                                     Placement* placement) {
  const auto& op = iterate.As<IterateOp>();
  const std::string loop = placement->temp_name.at(&iterate);
  // Init: execute wherever it was placed, fetch to the client.
  NEXUS_ASSIGN_OR_RETURN(Dataset state,
                         ExecToClient(iterate.child(0).get(), placement));
  // The loop variable is checkpointed at the client every K iterations; a
  // mid-loop server failure rewinds to the last checkpoint (not iteration
  // 0), fails over away from the dead server, and resumes.
  const int64_t k = std::max<int64_t>(1, options_.retry.checkpoint_every);
  Dataset checkpoint = state;
  int64_t checkpoint_iter = 0;
  const size_t max_recoveries = cluster_->ServerNames().size();
  size_t recoveries = 0;
  int64_t iter = 0;
  LoopShip ship;
  while (iter < op.max_iters) {
    NEXUS_RETURN_NOT_OK(CheckCancelled());
    if (iter % k == 0) {
      checkpoint = state;
      checkpoint_iter = iter;
    }
    auto stepped = RunLoopStep(op, StrCat(loop, "_", iter), &state, &ship);
    if (!stepped.ok()) {
      if (IsRetryable(stepped.status()) && recoveries < max_recoveries &&
          ExcludeFailedServer()) {
        // Later iterations replan around the loss.
        telemetry::Count(QueryStat::kReplans);
        telemetry::Count(QueryStat::kCheckpointRestores);
        if (telemetry::Enabled()) {
          telemetry::RecordComplete(
              telemetry::kCategoryCoordinator, "checkpoint-restore", "",
              cluster_->transport()->simulated_seconds(), 0.0,
              {{"rewind_to_iteration", checkpoint_iter}});
        }
        ++recoveries;
        state = checkpoint;
        iter = checkpoint_iter;
        ship = LoopShip();  // re-probe placement away from the dead server
        continue;
      }
      return stepped.status();
    }
    ++iter;
    if (stepped.ValueOrDie()) break;
  }
  return state;
}

Result<Dataset> Coordinator::QueryRun::Run(const PlanPtr& plan,
                                           Placement* placement) {
  if (placement->assign.at(plan.get()) == kClientNode) {
    return RunClientLoop(*plan, placement);
  }
  return ExecToClient(plan.get(), placement);
}

Result<Dataset> Coordinator::QueryRun::Execute(const PlanPtr& plan) {
  NEXUS_ASSIGN_OR_RETURN(PlanPtr prepared,
                         c_->Prepare(plan, &optimizer_stats_));
  const std::string temp_prefix = StrCat("__frag_", ns_prefix_);
  Placement placement;
  {
    telemetry::SpanGuard plan_span(telemetry::kCategoryCoordinator, "plan");
    NEXUS_RETURN_NOT_OK(Assign(prepared, temp_prefix, &placement));
  }
  root_placement_ = &placement;
  auto result = Run(prepared, &placement);
  // Failover: while the failure is transient and a server can be blamed,
  // exclude it, replan, and resume from memoized temps on the survivors.
  // A cancelled query never fails over: kResourceExhausted/kTimeout from
  // the token mean "stop", not "the server is sick".
  while (!result.ok() && IsRetryable(result.status()) && !Cancelled() &&
         ExcludeFailedServer()) {
    Placement replanned;
    {
      telemetry::SpanGuard replan_span(telemetry::kCategoryCoordinator,
                                       "replan");
      // Nowhere to go when no server can take the plan.
      if (!Assign(prepared, temp_prefix, &replanned).ok()) break;
    }
    telemetry::Count(QueryStat::kReplans);
    placement = std::move(replanned);
    result = Run(prepared, &placement);
  }
  root_placement_ = nullptr;
  if (span_.active() && result.ok()) {
    span_.AddCounter("rows", result.ValueOrDie().num_rows());
    span_.AddCounter("bytes", result.ValueOrDie().ByteSize());
  }
  for (const auto& [node, server] : placement.assign) {
    if (metrics_ != nullptr && !server.empty()) {
      ++metrics_->nodes_per_server[server];
    }
  }
  return result;
}

Result<Dataset> Coordinator::QueryRun::ExecutePerOp(const PlanPtr& plan) {
  NEXUS_ASSIGN_OR_RETURN(PlanPtr prepared,
                         c_->Prepare(plan, &optimizer_stats_));
  Placement placement;
  NEXUS_RETURN_NOT_OK(Assign(prepared, std::string(), &placement));

  // Per-op: every operator is its own remote call; each intermediate comes
  // back to the client and is embedded (as Values) in the next call.
  std::function<Result<Dataset>(const PlanPtr&)> step =
      [&](const PlanPtr& node) -> Result<Dataset> {
    if (node->kind() == OpKind::kValues) return node->As<ValuesOp>().data;
    std::vector<PlanPtr> inline_children;
    for (const PlanPtr& c : node->children()) {
      NEXUS_ASSIGN_OR_RETURN(Dataset d, step(c));
      inline_children.push_back(Plan::Values(std::move(d)));
    }
    std::string server = placement.assign.at(node.get());
    if (server.empty() || server == kClientNode) {
      NEXUS_ASSIGN_OR_RETURN(server, AnyAvailableServer());
    }
    PlanPtr call = node->WithChildren(std::move(inline_children));
    NEXUS_ASSIGN_OR_RETURN(Dataset result, ShipAndRun(server, call));
    return SendData(server, kClientNode, result);
  };
  return step(prepared);
}

Result<Dataset> Coordinator::Execute(const PlanPtr& plan,
                                     ExecutionMetrics* metrics) {
  // Everything this call does — sends, fragments, morsels on pool workers —
  // counts into the run's profile; the metrics carry it.
  return QueryRun(this, "query", metrics).Execute(plan);
}

Result<Dataset> Coordinator::ExecutePerOp(const PlanPtr& plan,
                                          ExecutionMetrics* metrics) {
  return QueryRun(this, "query (per-op)", metrics).ExecutePerOp(plan);
}

Result<std::string> Coordinator::ExplainPlacement(const PlanPtr& plan) {
  NEXUS_ASSIGN_OR_RETURN(PlanPtr prepared, Prepare(plan, nullptr));
  Placement placement;
  NEXUS_RETURN_NOT_OK(AssignServers(prepared, {}, &placement).status());
  std::string out;
  CardinalityEstimator est(&fed_catalog_);
  std::function<void(const PlanPtr&, int)> print = [&](const PlanPtr& node,
                                                       int indent) {
    out.append(static_cast<size_t>(indent) * 2, ' ');
    out += node->NodeLabel();
    auto it = placement.assign.find(node.get());
    std::string server =
        it == placement.assign.end() || it->second.empty() ? "inherit" : it->second;
    out += StrCat("  @", server);
    if (placement.client_loops.count(node.get()) != 0) out += " (client-driven)";
    auto stats = est.Estimate(*node);
    if (stats.ok()) {
      out += StrCat("  est_rows=", std::llround(stats.ValueOrDie().rows),
                    " est_bytes=",
                    static_cast<int64_t>(stats.ValueOrDie().Bytes()));
    }
    out += "\n";
    for (const PlanPtr& c : node->children()) print(c, indent + 1);
  };
  print(prepared, 0);
  return out;
}

Result<std::string> Coordinator::ExplainAnalyze(const PlanPtr& plan,
                                                ExecutionMetrics* metrics) {
  // Trace one execution and render the span tree. The run is real: faults
  // fire, retries happen, and the report shows them. Tracing rides on this
  // thread's context, and the trailer lines render this call's profile.
  ScopedQuery query(/*trace=*/true);
  ExecutionMetrics local;
  if (metrics == nullptr) metrics = &local;
  auto result = Execute(plan, metrics);
  std::string report = telemetry::ExplainAnalyze(telemetry::Spans(),
                                                 metrics->trace_id);
  NEXUS_RETURN_NOT_OK(result.status());
  // The call's counts — plan cache, expression programs, semi-ring
  // lowering, spilling, delta bindings, view refreshes — one line per group.
  const std::string stats = query.profile().ToString("\n");
  if (!stats.empty()) report += stats + "\n";
  return report;
}

}  // namespace nexus
