#include "service/server.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/spill/spill.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace service {

namespace {

/// Per-tenant registry instruments, resolved by name on use (the registry
/// memoizes, so this is a locked map lookup — fine off the hot path).
struct TenantInstruments {
  telemetry::Counter* admitted;
  telemetry::Counter* queued;
  telemetry::Counter* rejected;
  telemetry::Counter* killed;
  telemetry::Counter* expr_compiles;
  telemetry::Counter* expr_cache_hits;
  telemetry::Counter* completed;
  telemetry::Counter* failed;
  telemetry::Counter* requeued;
  telemetry::Counter* spill_ops;
  telemetry::Counter* spill_partitions;
  telemetry::Counter* spill_bytes;
  telemetry::Histogram* queue_wait_ms;
  telemetry::Histogram* latency_ms;
  telemetry::Histogram* reserved_bytes;

  static TenantInstruments For(const std::string& tenant) {
    auto& reg = telemetry::MetricsRegistry::Global();
    auto name = [&](const char* leaf) {
      return StrCat("service.", tenant, ".", leaf);
    };
    return TenantInstruments{
        reg.counter(name("admitted")),      reg.counter(name("queued")),
        reg.counter(name("rejected")),      reg.counter(name("killed")),
        reg.counter(name("expr_compiles")), reg.counter(name("expr_cache_hits")),
        reg.counter(name("completed")),     reg.counter(name("failed")),
        reg.counter(name("requeued")),      reg.counter(name("spill_ops")),
        reg.counter(name("spill_partitions")), reg.counter(name("spill_bytes")),
        reg.histogram(name("queue_wait_ms")),
        reg.histogram(name("latency_ms")),  reg.histogram(name("reserved_bytes")),
    };
  }
};

/// Rewrites Scan leaves that name a binding to the query-private upload
/// name, so the shipped plan reads the staged data.
PlanPtr RewriteBindings(const PlanPtr& plan,
                        const std::map<std::string, std::string>& renames) {
  if (plan->kind() == OpKind::kScan) {
    auto it = renames.find(plan->As<ScanOp>().table);
    if (it != renames.end()) return Plan::Scan(it->second);
    return plan;
  }
  std::vector<PlanPtr> children;
  children.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) {
    children.push_back(RewriteBindings(c, renames));
  }
  return plan->WithChildren(std::move(children));
}

}  // namespace

Server::Server(Cluster* cluster, ServerOptions options)
    : cluster_(cluster),
      options_(options),
      admission_(AdmissionOptions{std::max(1, options.max_concurrent),
                                  std::max(0, options.queue_capacity)}),
      coordinator_(cluster, options.coordinator) {}

Server::~Server() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, q] : queries_) {
      q->user_token->Cancel(StatusCode::kCancelled, "service shutting down");
      if (q->worker.joinable()) workers.push_back(std::move(q->worker));
    }
  }
  admission_.Poke();
  for (std::thread& w : workers) w.join();
  // Queries unwound via RAII just unlinked their scratch files; sweep the
  // directory for any orphan left by a crashier path (belt and braces).
  spill::SpillManager::Global().Sweep();
}

Status Server::RegisterTenant(const std::string& name, TenantOptions options) {
  return governor_.RegisterTenant(name, options);
}

Result<int64_t> Server::OpenSession(const std::string& tenant) {
  if (!governor_.UnderBudget(tenant) && governor_.Usage(tenant) == 0) {
    // Unknown tenants are the only way to be "over budget" at zero usage.
    return Status::NotFound(StrCat("unknown tenant '", tenant, "'"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  int64_t id = next_session_++;
  sessions_[id] = Session{tenant, /*open=*/true};
  return id;
}

Status Server::CloseSession(int64_t session) {
  std::vector<int64_t> outstanding;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end() || !it->second.open) {
      return Status::NotFound(StrCat("no open session ", session));
    }
    it->second.open = false;
    for (const auto& [id, q] : queries_) {
      if (q->session == session) outstanding.push_back(id);
    }
  }
  for (int64_t id : outstanding) {
    (void)Cancel(id);
    (void)Wait(id);  // join the worker; the result is discarded
  }
  return Status::OK();
}

Result<PlanPtr> Server::UploadBindings(
    int64_t query_id, const PlanPtr& plan,
    std::vector<std::pair<std::string, Dataset>>* bindings,
    std::vector<std::pair<std::string, std::string>>* uploaded) {
  if (bindings->empty()) return plan;
  std::vector<std::string> servers = cluster_->ServerNames();
  if (servers.empty()) return Status::InvalidArgument("cluster has no servers");
  const std::string& target = servers.front();
  std::map<std::string, std::string> renames;
  for (auto& [name, data] : *bindings) {
    std::string priv = StrCat("__svc_q", query_id, "_", name);
    NEXUS_RETURN_NOT_OK(cluster_->PutData(target, priv, std::move(data)));
    uploaded->emplace_back(target, priv);
    renames[name] = priv;
  }
  bindings->clear();
  return RewriteBindings(plan, renames);
}

void Server::DropBindings(
    const std::vector<std::pair<std::string, std::string>>& uploaded) {
  for (const auto& [server, name] : uploaded) {
    Provider* p = cluster_->provider(server);
    if (p != nullptr) (void)p->catalog()->Drop(name);
  }
}

Result<Dataset> Server::RunAttempt(const std::string& tenant,
                                   const PlanPtr& plan,
                                   const QueryOptions& options,
                                   const CancelTokenPtr& attempt_token,
                                   QueryReport* report, std::string* explain) {
  TenantInstruments ins = TenantInstruments::For(tenant);
  double queue_wait_ms = 0.0;
  double queue_start_sim = cluster_->transport()->simulated_seconds();
  Status admitted = admission_.Admit(
      options.query_class, tenant, attempt_token.get(),
      [this, tenant] { return governor_.UnderBudget(tenant); },
      &queue_wait_ms);
  report->queue_wait_ms += queue_wait_ms;
  if (!admitted.ok()) {
    if (admitted.IsResourceExhausted()) {
      report->admission = "rejected";
      ins.rejected->Increment();
    }
    return admitted;
  }
  if (queue_wait_ms > 0.5 && report->admission == "admitted") {
    report->admission = "queued";
  }
  if (queue_wait_ms > 0.5) {
    ins.queued->Increment();
  } else {
    ins.admitted->Increment();
  }
  ins.queue_wait_ms->Record(queue_wait_ms);
  if (telemetry::Enabled() && queue_wait_ms > 0.0) {
    telemetry::RecordComplete(telemetry::kCategoryService,
                              StrCat("queue-wait ", tenant), "",
                              queue_start_sim, 0.0,
                              {{"wait_ms", static_cast<int64_t>(queue_wait_ms)}});
  }

  WallTimer run_timer;
  auto meter_result = governor_.StartQuery(tenant, attempt_token);
  if (!meter_result.ok()) {
    admission_.Release(run_timer.ElapsedSeconds() * 1e3);
    return meter_result.status();
  }
  std::unique_ptr<MemoryGovernor::QueryMeter> meter =
      std::move(meter_result).ValueOrDie();

  // The attempt's own profile (nested under the report's, which spans
  // every attempt) attributes its compiler and spill activity to the tenant
  // exactly, however many other queries run alongside.
  QueryProfile profile(&report->profile);
  Result<Dataset> result{Status::Internal("query did not run")};
  {
    TaskContext ctx;
    ctx.cancel = attempt_token.get();
    if (options.deadline_seconds > 0.0) {
      ctx.deadline_simulated_seconds =
          cluster_->transport()->simulated_seconds() + options.deadline_seconds;
    }
    ctx.weight = QueryClassWeight(options.query_class);
    ctx.meter = meter.get();
    ctx.profile = &profile;
    ScopedTaskContext scoped(&ctx);
    if (explain != nullptr) {
      auto analyzed = coordinator_.ExplainAnalyze(plan);
      if (analyzed.ok()) {
        *explain = std::move(analyzed).ValueOrDie();
        result = Result<Dataset>(Dataset());
      } else {
        result = analyzed.status();
      }
    } else {
      result = coordinator_.Execute(plan);
    }
  }
  // A fired token outranks the downstream outcome — even a success. A query
  // the governor killed must not count as completed (its reservation is being
  // reclaimed), and the client should see "killed: over budget", not the
  // fragment-level symptom or a lucky fast finish.
  if (attempt_token->cancelled()) {
    result = attempt_token->status();
  }

  const int64_t expr_compiles = profile[QueryStat::kExprCompiles];
  const int64_t expr_cache_hits = profile[QueryStat::kExprCacheHits];
  if (expr_compiles > 0) ins.expr_compiles->Add(expr_compiles);
  if (expr_cache_hits > 0) ins.expr_cache_hits->Add(expr_cache_hits);

  const int64_t spill_ops = profile[QueryStat::kSpillOps];
  const int64_t spill_parts = profile[QueryStat::kSpillPartitions];
  const int64_t spill_bytes = profile[QueryStat::kSpillBytes];
  if (spill_ops > 0) ins.spill_ops->Add(spill_ops);
  if (spill_parts > 0) ins.spill_partitions->Add(spill_parts);
  if (spill_bytes > 0) ins.spill_bytes->Add(spill_bytes);
  report->released_bytes += meter->released();

  report->reserved_bytes += meter->charged();
  ins.reserved_bytes->Record(static_cast<double>(meter->charged()));
  governor_.FinishQuery(meter.get());
  double run_ms = run_timer.ElapsedSeconds() * 1e3;
  admission_.Release(run_ms);
  admission_.Poke();  // FinishQuery may have made a held-back tenant eligible
  return result;
}

Result<Dataset> Server::RunQuery(
    const std::string& tenant, const PlanPtr& plan, const QueryOptions& options,
    CancelTokenPtr user_token, int64_t query_id,
    std::vector<std::pair<std::string, Dataset>> bindings, QueryReport* report,
    std::string* explain) {
  WallTimer timer;
  TenantInstruments ins = TenantInstruments::For(tenant);
  report->tenant = tenant;
  report->query_class = options.query_class;

  std::vector<std::pair<std::string, std::string>> uploaded;
  auto rewritten = UploadBindings(query_id, plan, &bindings, &uploaded);
  if (!rewritten.ok()) {
    DropBindings(uploaded);
    return rewritten.status();
  }
  PlanPtr effective = std::move(rewritten).ValueOrDie();

  // Attempt 1 runs on the user token itself, so a client Cancel() reaches
  // the coordinator and morsel loops directly.
  Result<Dataset> result = RunAttempt(tenant, effective, options, user_token,
                                      report, explain);
  bool killed = !result.ok() && result.status().IsResourceExhausted() &&
                user_token->cancelled() &&
                user_token->status().IsResourceExhausted();
  if (killed) {
    report->admission = "killed";
    ins.killed->Increment();
  }
  if (killed && options_.requeue_on_kill) {
    // One requeue: a fresh token (the old one is burnt), a fresh trip
    // through admission — where the governor's eligibility predicate holds
    // the query back until its tenant is under budget again.
    report->requeues += 1;
    ins.requeued->Increment();
    CancelTokenPtr retry_token = std::make_shared<CancelToken>();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = queries_.find(query_id);
      if (it != queries_.end()) {
        // Re-point Cancel() at the live attempt.
        it->second->user_token = retry_token;
      }
    }
    result = RunAttempt(tenant, effective, options, retry_token, report,
                        explain);
    if (!result.ok() && result.status().IsResourceExhausted()) {
      report->admission = "killed";
      ins.killed->Increment();
    }
  }

  DropBindings(uploaded);
  report->latency_ms = timer.ElapsedSeconds() * 1e3;
  ins.latency_ms->Record(report->latency_ms);
  if (result.ok()) {
    ins.completed->Increment();
  } else {
    ins.failed->Increment();
  }
  return result;
}

Result<Dataset> Server::Execute(
    int64_t session, const PlanPtr& plan, const QueryOptions& options,
    QueryReport* report, std::vector<std::pair<std::string, Dataset>> bindings) {
  std::string tenant;
  int64_t query_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end() || !it->second.open) {
      return Status::NotFound(StrCat("no open session ", session));
    }
    tenant = it->second.tenant;
    query_id = next_query_++;
  }
  QueryReport local;
  QueryReport* rp = report != nullptr ? report : &local;
  return RunQuery(tenant, plan, options, std::make_shared<CancelToken>(),
                  query_id, std::move(bindings), rp, /*explain=*/nullptr);
}

Result<int64_t> Server::Submit(
    int64_t session, const PlanPtr& plan, const QueryOptions& options,
    std::vector<std::pair<std::string, Dataset>> bindings) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) {
    return Status::NotFound(StrCat("no open session ", session));
  }
  std::string tenant = it->second.tenant;
  int64_t id = next_query_++;
  auto query = std::make_unique<Query>();
  Query* q = query.get();
  q->id = id;
  q->session = session;
  q->tenant = tenant;
  q->options = options;
  q->user_token = std::make_shared<CancelToken>();
  queries_[id] = std::move(query);
  CancelTokenPtr token = q->user_token;
  auto shared_bindings =
      std::make_shared<std::vector<std::pair<std::string, Dataset>>>(
          std::move(bindings));
  q->worker = std::thread([this, q, plan, options, token, id, tenant,
                           shared_bindings] {
    QueryReport report;
    Result<Dataset> result =
        RunQuery(tenant, plan, options, token, id,
                 std::move(*shared_bindings), &report, /*explain=*/nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    q->result = std::move(result);
    q->report = report;
    q->done = true;
    queries_cv_.notify_all();
  });
  return id;
}

Result<Dataset> Server::Wait(int64_t query, QueryReport* report) {
  std::thread worker;
  Result<Dataset> result{Status::Internal("query not finished")};
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = queries_.find(query);
    if (it == queries_.end()) {
      return Status::NotFound(StrCat("no such query ", query));
    }
    Query* q = it->second.get();
    queries_cv_.wait(lock, [q] { return q->done; });
    worker = std::move(q->worker);
    result = std::move(q->result);
    if (report != nullptr) *report = q->report;
    queries_.erase(it);
  }
  if (worker.joinable()) worker.join();
  return result;
}

Status Server::Cancel(int64_t query) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(query);
    if (it == queries_.end()) {
      return Status::NotFound(StrCat("no such query ", query));
    }
    it->second->user_token->Cancel(StatusCode::kCancelled,
                                   StrCat("query ", query, " cancelled"));
  }
  admission_.Poke();  // wake it if it is still waiting in the queue
  return Status::OK();
}

Result<std::string> Server::ExplainAnalyze(int64_t session, const PlanPtr& plan,
                                           const QueryOptions& options) {
  std::string tenant;
  int64_t query_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end() || !it->second.open) {
      return Status::NotFound(StrCat("no open session ", session));
    }
    tenant = it->second.tenant;
    query_id = next_query_++;
  }
  QueryReport report;
  std::string analyzed;
  auto run = RunQuery(tenant, plan, options, std::make_shared<CancelToken>(),
                      query_id, {}, &report, &analyzed);
  NEXUS_RETURN_NOT_OK(run.status());
  return StrCat("admission: queued=", FormatDouble(report.queue_wait_ms, 2),
                "ms class=", QueryClassName(options.query_class),
                " governor=", report.admission, "\n", analyzed);
}

}  // namespace service
}  // namespace nexus
