// Server: the in-process multi-tenant query service facade.
//
// Wires the three robustness mechanisms of this subsystem around the
// existing federation Coordinator:
//
//   client → AdmissionController (bounded queue, priority classes,
//            deterministic rejection)
//          → MemoryGovernor (per-tenant budgets, kill-or-queue)
//          → the server's one Coordinator (the query's cancel token and
//            deadline ride in its TaskContext) → the shared Cluster.
//
// Concurrency model: the admission controller lets at most max_concurrent
// queries run at a time, and all of them share one Coordinator. Each call
// leases its own temp namespace from the Cluster, which keeps concurrent
// queries' server-side temporaries disjoint, and all calls share one
// plan-cache mirror per server. Queries of all tenants and sessions may be
// submitted from any number of threads; Submit() additionally runs the
// query on a service-owned thread so a session can overlap queries and
// cancel them mid-flight.
//
// Every failure mode is a Status, never a crash: overload rejects with
// retryable kResourceExhausted (+ retry-after hint), budget kills unwind
// with retryable kResourceExhausted, deadlines with kTimeout, client
// cancellation with kCancelled (not retryable — the client asked for it).
#ifndef NEXUS_SERVICE_SERVER_H_
#define NEXUS_SERVICE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/query_profile.h"
#include "common/result.h"
#include "common/status.h"
#include "federation/coordinator.h"
#include "service/admission.h"
#include "service/governor.h"

namespace nexus {
namespace service {

struct ServerOptions {
  /// Execution slots: queries that run at once, all on one Coordinator
  /// (the admission controller is the only cap).
  int max_concurrent = 4;
  /// Queries allowed to wait for a slot before rejection.
  int queue_capacity = 16;
  /// After a budget kill, re-admit the query once (it waits, via the
  /// governor eligibility predicate, until its tenant is under budget
  /// again) instead of failing straight back to the client.
  bool requeue_on_kill = true;
  /// Options of the Coordinator every query runs on.
  CoordinatorOptions coordinator;
};

/// Per-query knobs, chosen by the client at submit time.
struct QueryOptions {
  QueryClass query_class = QueryClass::kStandard;
  /// Simulated-seconds budget for the whole query (0 = none); crossing it
  /// cancels the query with kTimeout.
  double deadline_seconds = 0.0;
};

/// What happened to one query, for clients and tests.
struct QueryReport {
  std::string tenant;
  QueryClass query_class = QueryClass::kStandard;
  /// "admitted" (ran immediately) | "queued" (waited for a slot or for its
  /// tenant's budget) | "killed" (budget victim, possibly after requeue) |
  /// "rejected" (queue full).
  std::string admission = "admitted";
  double queue_wait_ms = 0.0;
  double latency_ms = 0.0;
  int64_t reserved_bytes = 0;  ///< bytes the query charged to its tenant
  int requeues = 0;
  /// Bytes the query returned to its tenant before finishing — working
  /// sets it freed and data it parked in spill files (net accounting).
  int64_t released_bytes = 0;
  /// Everything the query counted across all its attempts — messages,
  /// bytes, fragments, morsels, expression compiles, spill partitions and
  /// bytes, ... (see common/query_profile.h). Exact under concurrency.
  QueryProfile profile;
};

class Server {
 public:
  explicit Server(Cluster* cluster, ServerOptions options = {});
  /// Cancels and joins every in-flight query.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Tenants must be registered before their sessions open.
  Status RegisterTenant(const std::string& name, TenantOptions options);

  /// Opens a session for `tenant`; returns its id.
  Result<int64_t> OpenSession(const std::string& tenant);

  /// Cancels the session's outstanding queries and releases their state.
  Status CloseSession(int64_t session);

  /// Synchronous execution: admission → metered run → result. `bindings`
  /// are uploaded to the cluster under query-private names before admission
  /// (Scan leaves naming a binding are rewritten to the private name) and
  /// dropped when the query finishes, fails, or is cancelled — even if it
  /// never left the admission queue.
  Result<Dataset> Execute(
      int64_t session, const PlanPtr& plan, const QueryOptions& options = {},
      QueryReport* report = nullptr,
      std::vector<std::pair<std::string, Dataset>> bindings = {});

  /// Asynchronous execution on a service thread; returns a query id.
  Result<int64_t> Submit(
      int64_t session, const PlanPtr& plan, const QueryOptions& options = {},
      std::vector<std::pair<std::string, Dataset>> bindings = {});

  /// Blocks until the submitted query finishes; returns its result.
  Result<Dataset> Wait(int64_t query, QueryReport* report = nullptr);

  /// Requests cooperative cancellation (kCancelled, not retryable). The
  /// query's slot, temps, and bindings are released as it unwinds; a query
  /// still waiting in the admission queue is withdrawn without running.
  Status Cancel(int64_t query);

  /// EXPLAIN ANALYZE through the service path: the coordinator's span tree
  /// preceded by one admission line —
  ///   admission: queued=<ms> class=<name> governor=<admitted|queued|killed>
  Result<std::string> ExplainAnalyze(int64_t session, const PlanPtr& plan,
                                     const QueryOptions& options = {});

  const AdmissionController& admission() const { return admission_; }
  MemoryGovernor& governor() { return governor_; }

 private:
  struct Session {
    std::string tenant;
    bool open = false;
  };

  struct Query {
    int64_t id = 0;
    int64_t session = 0;
    std::string tenant;
    QueryOptions options;
    CancelTokenPtr user_token;  // fired by Cancel()/CloseSession()
    std::thread worker;         // joined by Wait()/~Server
    bool done = false;
    Result<Dataset> result{Status::Internal("query not finished")};
    QueryReport report;
  };

  /// The full life of one query: bindings → admission → governed run →
  /// cleanup. `explain`, when set, receives ExplainAnalyze output.
  Result<Dataset> RunQuery(const std::string& tenant, const PlanPtr& plan,
                           const QueryOptions& options,
                           CancelTokenPtr user_token, int64_t query_id,
                           std::vector<std::pair<std::string, Dataset>> bindings,
                           QueryReport* report, std::string* explain);
  /// One admission→execution attempt (RunQuery may make two on a requeue).
  Result<Dataset> RunAttempt(const std::string& tenant, const PlanPtr& plan,
                             const QueryOptions& options,
                             const CancelTokenPtr& attempt_token,
                             QueryReport* report, std::string* explain);

  /// Uploads bindings under "__svc_q<id>_<name>" on the first server and
  /// returns the rewritten plan; names are recorded for DropBindings.
  Result<PlanPtr> UploadBindings(
      int64_t query_id, const PlanPtr& plan,
      std::vector<std::pair<std::string, Dataset>>* bindings,
      std::vector<std::pair<std::string, std::string>>* uploaded);
  void DropBindings(
      const std::vector<std::pair<std::string, std::string>>& uploaded);

  Cluster* cluster_;
  ServerOptions options_;
  AdmissionController admission_;
  MemoryGovernor governor_;
  Coordinator coordinator_;

  mutable std::mutex mu_;
  std::map<int64_t, Session> sessions_;
  std::map<int64_t, std::unique_ptr<Query>> queries_;
  std::condition_variable queries_cv_;
  int64_t next_session_ = 1;
  int64_t next_query_ = 1;
};

}  // namespace service
}  // namespace nexus

#endif  // NEXUS_SERVICE_SERVER_H_
