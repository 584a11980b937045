// Service-layer tests: admission control, per-tenant memory budgets,
// deadline propagation, cooperative cancellation, and the multi-tenant
// Server facade — graceful degradation, never a crash.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/query_profile.h"
#include "common/str_util.h"
#include "exec/spill/spill.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "service/server.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using service::AdmissionController;
using service::AdmissionOptions;
using service::MemoryGovernor;
using service::QueryClass;
using service::QueryOptions;
using service::QueryReport;
using service::Server;
using service::ServerOptions;
using service::TenantOptions;
using testing::F;
using testing::I;
using testing::MakeSchema;

void SpinUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 20000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred()) << "condition not reached within 20s";
}

// ---------------------------------------------------------------------------
// AdmissionController unit tests.
// ---------------------------------------------------------------------------

TEST(AdmissionTest, GrantsUpToMaxConcurrent) {
  AdmissionController ac(AdmissionOptions{2, 4});
  ASSERT_OK(ac.Admit(QueryClass::kStandard, "t", nullptr, nullptr, nullptr));
  ASSERT_OK(ac.Admit(QueryClass::kStandard, "t", nullptr, nullptr, nullptr));
  EXPECT_EQ(ac.admitted(), 2);
  ac.Release(5.0);
  ac.Release(5.0);
}

TEST(AdmissionTest, RejectsWhenQueueFull) {
  // 1 slot, 0 queue: the second concurrent query is rejected outright.
  AdmissionController ac(AdmissionOptions{1, 0});
  ASSERT_OK(ac.Admit(QueryClass::kStandard, "t", nullptr, nullptr, nullptr));
  Status second = ac.Admit(QueryClass::kStandard, "t", nullptr, nullptr, nullptr);
  EXPECT_TRUE(second.IsResourceExhausted());
  EXPECT_TRUE(IsRetryable(second));
  EXPECT_NE(second.message().find("retry after"), std::string::npos);
  EXPECT_EQ(ac.rejected(), 1);
  ac.Release(5.0);
  EXPECT_GT(ac.RetryAfterMillis(), 0.0);
}

TEST(AdmissionTest, PriorityClassesDrainInOrder) {
  AdmissionController ac(AdmissionOptions{1, 8});
  ASSERT_OK(ac.Admit(QueryClass::kBatch, "t", nullptr, nullptr, nullptr));
  std::vector<int> order;
  std::mutex order_mu;
  auto waiter = [&](QueryClass cls, int id) {
    return std::thread([&, cls, id] {
      double wait_ms = 0.0;
      ASSERT_OK(ac.Admit(cls, "t", nullptr, nullptr, &wait_ms));
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(id);
      }
      ac.Release(1.0);
    });
  };
  // Enqueue batch first, then interactive, then standard — strictly after
  // one another so arrival order is fixed.
  std::thread b = waiter(QueryClass::kBatch, 3);
  SpinUntil([&] { return ac.queued_now() == 1; });
  std::thread i = waiter(QueryClass::kInteractive, 1);
  SpinUntil([&] { return ac.queued_now() == 2; });
  std::thread s = waiter(QueryClass::kStandard, 2);
  SpinUntil([&] { return ac.queued_now() == 3; });
  ac.Release(1.0);  // free the slot: the queue drains by (class, arrival)
  b.join();
  i.join();
  s.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(AdmissionTest, CancelledTicketWithdraws) {
  AdmissionController ac(AdmissionOptions{1, 4});
  ASSERT_OK(ac.Admit(QueryClass::kStandard, "t", nullptr, nullptr, nullptr));
  CancelToken token;
  std::thread waiter([&] {
    Status s = ac.Admit(QueryClass::kStandard, "t", &token, nullptr, nullptr);
    EXPECT_TRUE(s.IsCancelled());
  });
  SpinUntil([&] { return ac.queued_now() == 1; });
  token.Cancel(StatusCode::kCancelled, "client gave up");
  ac.Poke();
  waiter.join();
  EXPECT_EQ(ac.queued_now(), 0);
  ac.Release(1.0);
}

TEST(AdmissionTest, IneligibleTicketHeldBack) {
  AdmissionController ac(AdmissionOptions{2, 4});
  std::atomic<bool> eligible{false};
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_OK(ac.Admit(QueryClass::kInteractive, "t", nullptr,
                       [&] { return eligible.load(); }, nullptr));
    granted.store(true);
    ac.Release(1.0);
  });
  SpinUntil([&] { return ac.queued_now() == 1; });
  // Both slots are free, but the ticket is ineligible: it must wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  eligible.store(true);
  ac.Poke();
  waiter.join();
  EXPECT_TRUE(granted.load());
}

// ---------------------------------------------------------------------------
// MemoryGovernor unit tests.
// ---------------------------------------------------------------------------

TEST(GovernorTest, ChargesAndReleases) {
  MemoryGovernor governor;
  ASSERT_OK(governor.RegisterTenant("acme", TenantOptions{1000, 1}));
  ASSERT_OK_AND_ASSIGN(auto meter, governor.StartQuery("acme", nullptr));
  meter->Charge(400);
  EXPECT_EQ(governor.Usage("acme"), 400);
  EXPECT_TRUE(governor.UnderBudget("acme"));
  governor.FinishQuery(meter.get());
  EXPECT_EQ(governor.Usage("acme"), 0);
  EXPECT_EQ(governor.kills(), 0);
}

TEST(GovernorTest, KillsCheapestSufficientVictim) {
  MemoryGovernor governor;
  ASSERT_OK(governor.RegisterTenant("acme", TenantOptions{1000, 1}));
  auto t1 = std::make_shared<CancelToken>();
  auto t2 = std::make_shared<CancelToken>();
  ASSERT_OK_AND_ASSIGN(auto big, governor.StartQuery("acme", t1));
  ASSERT_OK_AND_ASSIGN(auto small, governor.StartQuery("acme", t2));
  big->Charge(800);
  EXPECT_EQ(governor.kills(), 0);  // still under budget
  small->Charge(300);              // 1100 > 1000: someone must die
  EXPECT_EQ(governor.kills(), 1);
  // The small query (300 >= 100 over) is the cheapest sufficient victim.
  EXPECT_TRUE(t2->cancelled());
  EXPECT_FALSE(t1->cancelled());
  Status verdict = t2->status();
  EXPECT_TRUE(verdict.IsResourceExhausted());
  EXPECT_TRUE(IsRetryable(verdict));
  // Only one victim at a time: further charges don't pile on kills while
  // the first victim is still unwinding.
  big->Charge(500);
  EXPECT_EQ(governor.kills(), 1);
  governor.FinishQuery(small.get());
  governor.FinishQuery(big.get());
  EXPECT_EQ(governor.Usage("acme"), 0);
}

TEST(GovernorTest, TenantsAreIsolated) {
  MemoryGovernor governor;
  ASSERT_OK(governor.RegisterTenant("hog", TenantOptions{100, 1}));
  ASSERT_OK(governor.RegisterTenant("neighbor", TenantOptions{1000, 1}));
  auto hog_token = std::make_shared<CancelToken>();
  auto nb_token = std::make_shared<CancelToken>();
  ASSERT_OK_AND_ASSIGN(auto hog, governor.StartQuery("hog", hog_token));
  ASSERT_OK_AND_ASSIGN(auto nb, governor.StartQuery("neighbor", nb_token));
  nb->Charge(500);
  hog->Charge(1000);  // 10x over ITS budget
  EXPECT_TRUE(hog_token->cancelled());
  EXPECT_FALSE(nb_token->cancelled());
  EXPECT_FALSE(governor.UnderBudget("hog"));
  EXPECT_TRUE(governor.UnderBudget("neighbor"));
  governor.FinishQuery(hog.get());
  governor.FinishQuery(nb.get());
}

TEST(GovernorTest, AsksSpillCapableQueriesBeforeKilling) {
  // For a tenant with a spill budget, the first budget breach flips the
  // spill-requested flag on every live query instead of killing one, and
  // an asked tenant is tolerated up to 2x budget while it sheds. Only past
  // that slack does the kill path engage.
  MemoryGovernor governor;
  ASSERT_OK(governor.RegisterTenant("acme", TenantOptions{1000, 1, 1000}));
  auto t1 = std::make_shared<CancelToken>();
  auto t2 = std::make_shared<CancelToken>();
  ASSERT_OK_AND_ASSIGN(auto big, governor.StartQuery("acme", t1));
  ASSERT_OK_AND_ASSIGN(auto small, governor.StartQuery("acme", t2));
  EXPECT_TRUE(big->spill_capable());
  EXPECT_EQ(big->SpillBudget(), 1000);
  EXPECT_FALSE(big->SpillRequested());
  big->Charge(800);
  small->Charge(300);  // 1100 > 1000: ask, don't kill
  EXPECT_EQ(governor.kills(), 0);
  EXPECT_EQ(governor.spill_requests(), 1);
  EXPECT_TRUE(big->SpillRequested());
  EXPECT_TRUE(small->SpillRequested());
  EXPECT_FALSE(t1->cancelled());
  EXPECT_FALSE(t2->cancelled());
  // A cooperating query parks data on disk and releases the bytes.
  big->Release(200);
  EXPECT_EQ(governor.Usage("acme"), 900);
  EXPECT_TRUE(governor.UnderBudget("acme"));
  // Already-asked tenants ride the 2x slack while shedding lands...
  big->Charge(1000);  // usage 1900 <= 2000
  EXPECT_EQ(governor.kills(), 0);
  // ...but past 2x the cheapest sufficient victim (by net charge) dies:
  // big's net is 1600, small's 600; only big can cover the 1200 overrun.
  small->Charge(300);  // usage 2200 > 2000
  EXPECT_EQ(governor.kills(), 1);
  EXPECT_TRUE(t1->cancelled());
  EXPECT_FALSE(t2->cancelled());
  governor.FinishQuery(big.get());
  governor.FinishQuery(small.get());
  EXPECT_EQ(governor.Usage("acme"), 0);
}

TEST(GovernorTest, VictimCostIsNetOfReleases) {
  // Regression: victim cost must be the *net* charge. q1 charged 900 but
  // released 850 back (e.g. by spilling) — killing it recovers only 50
  // bytes, not enough for the 100-byte overrun. Gross accounting would
  // pick q1 as the "cheapest sufficient" victim and leave the tenant
  // still over budget after the kill.
  MemoryGovernor governor;
  ASSERT_OK(governor.RegisterTenant("acme", TenantOptions{1000, 1}));
  auto t1 = std::make_shared<CancelToken>();
  auto t2 = std::make_shared<CancelToken>();
  ASSERT_OK_AND_ASSIGN(auto q1, governor.StartQuery("acme", t1));
  ASSERT_OK_AND_ASSIGN(auto q2, governor.StartQuery("acme", t2));
  q1->Charge(900);
  q1->Release(850);
  EXPECT_EQ(governor.Usage("acme"), 50);
  EXPECT_EQ(q1->net(), 50);
  q2->Charge(1050);  // usage 1100 > 1000
  EXPECT_EQ(governor.kills(), 1);
  EXPECT_TRUE(t2->cancelled());
  EXPECT_FALSE(t1->cancelled());
  // Over-release never drives a meter (or the tenant) negative.
  q2->Release(100000);
  EXPECT_GE(q2->net(), 0);
  governor.FinishQuery(q1.get());
  governor.FinishQuery(q2.get());
  EXPECT_EQ(governor.Usage("acme"), 0);
}

// ---------------------------------------------------------------------------
// Server facade tests against a real (small) federation.
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    ASSERT_OK(cluster_->AddServer("relstore", MakeRelationalProvider()));
    ASSERT_OK(cluster_->AddServer("reference", MakeReferenceProvider()));
    SchemaPtr orders = MakeSchema({Field::Attr("oid", DataType::kInt64),
                                   Field::Attr("amount", DataType::kFloat64)});
    TableBuilder b(orders);
    Rng rng(11);
    for (int64_t i = 0; i < 500; ++i) {
      ASSERT_OK(b.AppendRow({I(i), F(rng.NextDouble(0, 100))}));
    }
    orders_ = b.Finish().ValueOrDie();
    ASSERT_OK(cluster_->PutData("relstore", "orders", Dataset(orders_)));
  }

  PlanPtr FilterPlan() {
    return Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0)));
  }

  /// True when any server's catalog still holds a name with this prefix.
  bool AnyTempWithPrefix(const std::string& prefix) {
    for (const std::string& s : cluster_->ServerNames()) {
      for (const std::string& name : cluster_->provider(s)->catalog()->Names()) {
        if (name.rfind(prefix, 0) == 0) return true;
      }
    }
    return false;
  }

  std::unique_ptr<Cluster> cluster_;
  TablePtr orders_;
};

TEST_F(ServiceTest, ExecuteMatchesDirectCoordinator) {
  Server server(cluster_.get());
  ASSERT_OK(server.RegisterTenant("acme", TenantOptions{}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("acme"));

  QueryReport report;
  ASSERT_OK_AND_ASSIGN(Dataset via_service,
                       server.Execute(session, FilterPlan(), {}, &report));
  Coordinator direct(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset baseline, direct.Execute(FilterPlan()));
  EXPECT_TRUE(via_service.LogicallyEquals(baseline));
  EXPECT_EQ(report.admission, "admitted");
  EXPECT_EQ(report.tenant, "acme");
  EXPECT_GT(report.reserved_bytes, 0);  // the meter saw the materialization
  EXPECT_FALSE(AnyTempWithPrefix("__frag_"));  // all temps released
  ASSERT_OK(server.CloseSession(session));
}

TEST_F(ServiceTest, PerTenantExprCompileMetrics) {
  Server server(cluster_.get());
  ASSERT_OK(server.RegisterTenant("acme", TenantOptions{}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("acme"));

  auto& reg = telemetry::MetricsRegistry::Global();
  const int64_t tenant_compiles0 =
      reg.counter("service.acme.expr_compiles")->value();
  const int64_t tenant_hits0 =
      reg.counter("service.acme.expr_cache_hits")->value();

  QueryReport first;
  ASSERT_OK(server.Execute(session, FilterPlan(), {}, &first).status());
  QueryReport second;
  ASSERT_OK(server.Execute(session, FilterPlan(), {}, &second).status());

  // The filter predicate compiles (or is served from the program cache) on
  // every run, and the per-tenant counters mirror the per-query reports.
  const int64_t compiles = first.profile[QueryStat::kExprCompiles] +
                           second.profile[QueryStat::kExprCompiles];
  const int64_t hits = first.profile[QueryStat::kExprCacheHits] +
                       second.profile[QueryStat::kExprCacheHits];
  EXPECT_GT(compiles + hits, 0);
  EXPECT_EQ(
      reg.counter("service.acme.expr_compiles")->value() - tenant_compiles0,
      compiles);
  EXPECT_EQ(reg.counter("service.acme.expr_cache_hits")->value() - tenant_hits0,
            hits);
  ASSERT_OK(server.CloseSession(session));
}

TEST_F(ServiceTest, UnknownTenantAndSessionAreErrors) {
  Server server(cluster_.get());
  EXPECT_TRUE(server.OpenSession("nobody").status().IsNotFound());
  EXPECT_TRUE(server.Execute(99, FilterPlan()).status().IsNotFound());
  EXPECT_TRUE(server.Cancel(42).IsNotFound());
}

TEST_F(ServiceTest, QueuedCancellationReleasesBindings) {
  // The leak-window regression, deterministic form: tenant "held" is pinned
  // over budget, so its submitted query (with staged bindings) waits in the
  // admission queue, ineligible. Cancelling it must withdraw the ticket and
  // release the staged bindings even though the query never executed.
  ServerOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 1;
  Server server(cluster_.get(), options);
  // Budget is roomy for a real query (~4KB materialized) so the post-unpin
  // Execute below succeeds; only the manual pin oversubscribes it.
  ASSERT_OK(server.RegisterTenant("held", TenantOptions{1 << 20, 1}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("held"));

  // Pin the tenant over budget with a manual meter (no token: unkillable).
  ASSERT_OK_AND_ASSIGN(auto pin, server.governor().StartQuery("held", nullptr));
  pin->Charge(2 << 20);
  ASSERT_FALSE(server.governor().UnderBudget("held"));

  std::vector<std::pair<std::string, Dataset>> bindings;
  bindings.emplace_back("bound_input", Dataset(orders_));
  PlanPtr plan = Plan::Select(Plan::Scan("bound_input"),
                              Gt(Col("amount"), Lit(50.0)));
  ASSERT_OK_AND_ASSIGN(int64_t query,
                       server.Submit(session, plan, {}, std::move(bindings)));
  SpinUntil([&] { return server.admission().queued_now() == 1; });
  // Its bindings are already staged server-side while it waits.
  EXPECT_TRUE(AnyTempWithPrefix("__svc_"));

  // A second query of the held tenant overflows the 1-deep queue: rejected
  // deterministically with a retryable status.
  Status overflow = server.Execute(session, FilterPlan()).status();
  EXPECT_TRUE(overflow.IsResourceExhausted());
  EXPECT_TRUE(IsRetryable(overflow));

  ASSERT_OK(server.Cancel(query));
  QueryReport report;
  Status cancelled = server.Wait(query, &report).status();
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_FALSE(IsRetryable(cancelled));
  // The never-executed query leaked nothing: bindings and temps are gone.
  EXPECT_FALSE(AnyTempWithPrefix("__svc_"));
  EXPECT_FALSE(AnyTempWithPrefix("__frag_"));

  // Un-pin the tenant: queries flow again.
  server.governor().FinishQuery(pin.get());
  EXPECT_OK(server.Execute(session, FilterPlan()).status());
}

TEST_F(ServiceTest, OverBudgetTenantIsKilledNotCrashed) {
  ServerOptions options;
  options.requeue_on_kill = false;
  Server server(cluster_.get(), options);
  // ~500 rows of (int64, float64) is ~8KB per materialization; a 1-byte
  // budget guarantees the first charge already oversubscribes 1000x.
  ASSERT_OK(server.RegisterTenant("hog", TenantOptions{1, 1}));
  ASSERT_OK(server.RegisterTenant("neighbor", TenantOptions{0, 1}));
  ASSERT_OK_AND_ASSIGN(int64_t hog_session, server.OpenSession("hog"));
  ASSERT_OK_AND_ASSIGN(int64_t nb_session, server.OpenSession("neighbor"));

  Coordinator direct(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset solo, direct.Execute(FilterPlan()));

  QueryReport hog_report;
  Status killed =
      server.Execute(hog_session, FilterPlan(), {}, &hog_report).status();
  EXPECT_TRUE(killed.IsResourceExhausted()) << killed;
  EXPECT_TRUE(IsRetryable(killed));
  EXPECT_EQ(hog_report.admission, "killed");
  EXPECT_GE(server.governor().kills(), 1);
  // The kill released everything; the hog's usage is back to zero.
  EXPECT_EQ(server.governor().Usage("hog"), 0);
  EXPECT_FALSE(AnyTempWithPrefix("__frag_"));

  // The neighbor's result is byte-identical to a solo run.
  ASSERT_OK_AND_ASSIGN(Dataset nb, server.Execute(nb_session, FilterPlan()));
  EXPECT_TRUE(nb.LogicallyEquals(solo));
}

TEST_F(ServiceTest, KilledQueryRequeuesOnce) {
  Server server(cluster_.get());  // requeue_on_kill defaults true
  ASSERT_OK(server.RegisterTenant("hog", TenantOptions{1, 1}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("hog"));
  QueryReport report;
  Status killed = server.Execute(session, FilterPlan(), {}, &report).status();
  // The budget is impossible (1 byte), so the requeued attempt dies too —
  // but it was made, and the final status is still retryable, not a crash.
  EXPECT_TRUE(killed.IsResourceExhausted());
  EXPECT_TRUE(IsRetryable(killed));
  EXPECT_EQ(report.requeues, 1);
  EXPECT_EQ(report.admission, "killed");
  EXPECT_FALSE(AnyTempWithPrefix("__frag_"));
}

TEST_F(ServiceTest, DeadlinePropagatesAsTimeout) {
  Server server(cluster_.get());
  ASSERT_OK(server.RegisterTenant("acme", TenantOptions{}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("acme"));
  QueryOptions options;
  // The first message alone charges ~1ms of simulated latency, so a 0.1ms
  // deadline is deterministically exceeded at the next cancellation check.
  options.deadline_seconds = 1e-4;
  Status timed_out = server.Execute(session, FilterPlan(), options).status();
  EXPECT_TRUE(timed_out.IsTimeout()) << timed_out;
  EXPECT_TRUE(IsRetryable(timed_out));
  EXPECT_FALSE(AnyTempWithPrefix("__frag_"));

  // Without the deadline the same query succeeds on the same server.
  EXPECT_OK(server.Execute(session, FilterPlan()).status());
}

TEST_F(ServiceTest, ExplainAnalyzeShowsAdmissionDecision) {
  Server server(cluster_.get());
  ASSERT_OK(server.RegisterTenant("acme", TenantOptions{}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("acme"));
  QueryOptions options;
  options.query_class = QueryClass::kInteractive;
  ASSERT_OK_AND_ASSIGN(std::string analyzed,
                       server.ExplainAnalyze(session, FilterPlan(), options));
  EXPECT_NE(analyzed.find("admission: queued="), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("class=interactive"), std::string::npos);
  EXPECT_NE(analyzed.find("governor=admitted"), std::string::npos);
}

TEST_F(ServiceTest, SpillWorkIsMeteredPerTenantAndInExplain) {
  // An over-budget aggregate transparently spills instead of dying; the
  // out-of-core work is attributed to the tenant's counters, the query
  // report, and the EXPLAIN ANALYZE summary — and the answer is
  // byte-identical to the in-memory run.
  PlanPtr agg =
      Plan::Aggregate(Plan::Scan("orders"), {"oid"},
                      {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
  Coordinator direct(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset want, direct.Execute(agg));  // unmetered

  Server server(cluster_.get());
  TenantOptions spills;
  spills.spill_budget_bytes = 1;  // no kill budget; everything spills
  ASSERT_OK(server.RegisterTenant("acme", spills));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("acme"));
  QueryReport report;
  ASSERT_OK_AND_ASSIGN(Dataset got, server.Execute(session, agg, {}, &report));
  EXPECT_TRUE(got.LogicallyEquals(want));
  EXPECT_GT(report.profile[QueryStat::kSpillPartitions], 0);
  EXPECT_GT(report.profile[QueryStat::kSpillBytes], 0);
  EXPECT_GT(report.released_bytes, 0);  // parked bytes came back to the tenant
  auto* bytes_counter =
      telemetry::MetricsRegistry::Global().counter("service.acme.spill_bytes");
  EXPECT_GT(bytes_counter->value(), 0);

  ASSERT_OK_AND_ASSIGN(std::string analyzed,
                       server.ExplainAnalyze(session, agg));
  EXPECT_NE(analyzed.find("spill: "), std::string::npos) << analyzed;
  // Every scratch file is reference-counted away once queries finish.
  EXPECT_EQ(spill::SpillManager::Global().live_files(), 0);
}

TEST_F(ServiceTest, SpillBudgetIsPerTenantUnderConcurrency) {
  // Two tenants run the same aggregate at the same time through one
  // server. Only the tenant with a spill budget goes out of core: the
  // policy rides on each query's meter, so neither tenant can see the
  // other's. Both answers are byte-identical to a solo run.
  PlanPtr agg =
      Plan::Aggregate(Plan::Scan("orders"), {"oid"},
                      {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
  Coordinator direct(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset want, direct.Execute(agg));

  ServerOptions options;
  options.max_concurrent = 2;
  Server server(cluster_.get(), options);
  TenantOptions spills;
  spills.spill_budget_bytes = 4096;
  ASSERT_OK(server.RegisterTenant("spiller", spills));
  ASSERT_OK(server.RegisterTenant("plain", TenantOptions{}));
  std::vector<int64_t> sessions;
  for (const char* tenant : {"spiller", "plain"}) {
    ASSERT_OK_AND_ASSIGN(int64_t s, server.OpenSession(tenant));
    sessions.push_back(s);
  }

  std::vector<Dataset> got(2);
  std::vector<QueryReport> reports(2);
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (size_t i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      auto r = server.Execute(sessions[i], agg, {}, &reports[i]);
      EXPECT_OK(r.status());
      if (r.ok()) got[i] = std::move(r).ValueOrDie();
    });
  }
  for (std::thread& c : clients) c.join();

  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(got[i].is_table()) << "tenant " << i;
    EXPECT_TRUE(got[i].table()->Equals(*want.table())) << "tenant " << i;
  }
  EXPECT_GT(reports[0].profile[QueryStat::kSpillOps], 0);
  EXPECT_GT(reports[0].profile[QueryStat::kSpillPartitions], 0);
  EXPECT_GT(reports[0].profile[QueryStat::kSpillBytes], 0);
  EXPECT_EQ(reports[1].profile[QueryStat::kSpillOps], 0);
  EXPECT_EQ(reports[1].profile[QueryStat::kSpillPartitions], 0);
  EXPECT_EQ(reports[1].profile[QueryStat::kSpillBytes], 0);
  EXPECT_EQ(spill::SpillManager::Global().live_files(), 0);
}

TEST_F(ServiceTest, CloseSessionCancelsOutstandingQueries) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 4;
  Server server(cluster_.get(), options);
  ASSERT_OK(server.RegisterTenant("held", TenantOptions{1000, 1}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("held"));
  ASSERT_OK_AND_ASSIGN(auto pin, server.governor().StartQuery("held", nullptr));
  pin->Charge(5000);  // hold all of the session's queries in the queue
  ASSERT_OK_AND_ASSIGN(int64_t q1, server.Submit(session, FilterPlan()));
  ASSERT_OK_AND_ASSIGN(int64_t q2, server.Submit(session, FilterPlan()));
  SpinUntil([&] { return server.admission().queued_now() == 2; });
  ASSERT_OK(server.CloseSession(session));
  // Queries are gone (already waited on by CloseSession) and nothing leaked.
  EXPECT_TRUE(server.Wait(q1).status().IsNotFound());
  EXPECT_TRUE(server.Wait(q2).status().IsNotFound());
  EXPECT_FALSE(AnyTempWithPrefix("__svc_"));
  EXPECT_TRUE(server.Execute(session, FilterPlan()).status().IsNotFound());
  server.governor().FinishQuery(pin.get());
}

TEST_F(ServiceTest, ConcurrentTenantsMatchSoloRuns) {
  // The headline robustness claim, scaled for a unit test: several tenants
  // hammer the service concurrently; every query either completes with the
  // solo-run answer or fails with a retryable status — and at this budget
  // (none) and queue depth, all must complete.
  ServerOptions options;
  options.max_concurrent = 3;
  options.queue_capacity = 64;
  Server server(cluster_.get(), options);
  constexpr int kTenants = 4;
  constexpr int kQueriesEach = 6;
  std::vector<int64_t> sessions;
  for (int t = 0; t < kTenants; ++t) {
    std::string name = StrCat("tenant", t);
    ASSERT_OK(server.RegisterTenant(name, TenantOptions{}));
    ASSERT_OK_AND_ASSIGN(int64_t s, server.OpenSession(name));
    sessions.push_back(s);
  }
  Coordinator direct(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset solo, direct.Execute(FilterPlan()));

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      QueryOptions qo;
      qo.query_class = static_cast<QueryClass>(t % 3);
      for (int q = 0; q < kQueriesEach; ++q) {
        auto result = server.Execute(sessions[static_cast<size_t>(t)],
                                     FilterPlan(), qo);
        if (!result.ok()) {
          failures.fetch_add(1);
        } else if (!result.ValueOrDie().LogicallyEquals(solo)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(AnyTempWithPrefix("__frag_"));
  EXPECT_FALSE(AnyTempWithPrefix("__svc_"));
}

TEST_F(ServiceTest, ConcurrentQueryProfilesAreExact) {
  // Per-query numbers come from each query's own profile, not from deltas
  // of process-wide counters, so they stay exact while tenants overlap:
  // the profiles sum to the global deltas, and each tenant's traffic is
  // what the same query costs when it runs alone.
  const int saved_threads = GetThreadCount();
  struct Restore {
    int threads;
    ~Restore() { SetThreadCount(threads); }
  } restore{saved_threads};
  SetThreadCount(4);
  constexpr int kTenants = 4;
  auto plan_of = [](int t) {
    return Plan::Select(Plan::Scan("orders"),
                        Gt(Col("amount"), Lit(20.0 * (t + 1))));
  };
  ServerOptions options;
  options.max_concurrent = kTenants;
  auto open_all = [&](Server* server, std::vector<int64_t>* sessions) {
    for (int t = 0; t < kTenants; ++t) {
      std::string name = StrCat("tenant", t);
      ASSERT_OK(server->RegisterTenant(name, TenantOptions{}));
      ASSERT_OK_AND_ASSIGN(int64_t s, server->OpenSession(name));
      sessions->push_back(s);
    }
  };

  // Solo runs, each on a fresh server so its coordinators start cold.
  std::vector<QueryProfile> solo(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Server server(cluster_.get(), options);
    std::vector<int64_t> sessions;
    open_all(&server, &sessions);
    QueryReport report;
    ASSERT_OK(server.Execute(sessions[static_cast<size_t>(t)], plan_of(t), {},
                             &report)
                  .status());
    solo[static_cast<size_t>(t)] = report.profile;
  }

  Server server(cluster_.get(), options);
  std::vector<int64_t> sessions;
  open_all(&server, &sessions);
  const Transport& transport = *cluster_->transport();
  // Every stat's process-wide total: its registry counter, or the pool's
  // own count for kMorsels.
  constexpr auto kStats = static_cast<size_t>(QueryStat::kCount_);
  auto totals = [] {
    std::array<int64_t, kStats> out{};
    for (size_t i = 0; i < kStats; ++i) {
      const auto stat = static_cast<QueryStat>(i);
      out[i] = stat == QueryStat::kMorsels
                   ? GetParallelStats().morsels
                   : telemetry::MetricsRegistry::Global()
                         .counter(QueryStatName(stat))
                         ->value();
    }
    return out;
  };
  const int64_t messages0 = transport.total_messages();
  const int64_t bytes0 = transport.total_bytes();
  const std::array<int64_t, kStats> totals0 = totals();

  std::vector<QueryReport> reports(kTenants);
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kTenants) std::this_thread::yield();
      auto i = static_cast<size_t>(t);
      EXPECT_OK(server.Execute(sessions[i], plan_of(t), {}, &reports[i])
                    .status());
    });
  }
  for (std::thread& c : clients) c.join();

  // Every stat, so a site that counts only one side shows up here.
  QueryProfile sum;
  for (const QueryReport& r : reports) {
    for (size_t i = 0; i < kStats; ++i) {
      const auto stat = static_cast<QueryStat>(i);
      sum.Add(stat, r.profile[stat]);
    }
  }
  const std::array<int64_t, kStats> totals1 = totals();
  for (size_t i = 0; i < kStats; ++i) {
    const auto stat = static_cast<QueryStat>(i);
    EXPECT_EQ(sum[stat], totals1[i] - totals0[i]) << QueryStatName(stat);
  }
  EXPECT_EQ(sum[QueryStat::kMessages], transport.total_messages() - messages0);
  EXPECT_EQ(sum[QueryStat::kBytes], transport.total_bytes() - bytes0);
  EXPECT_GT(sum[QueryStat::kExprCompiles] + sum[QueryStat::kExprCacheHits], 0);

  for (size_t t = 0; t < reports.size(); ++t) {
    const QueryProfile& got = reports[t].profile;
    EXPECT_GT(got[QueryStat::kMessages], 0) << "tenant " << t;
    for (QueryStat stat :
         {QueryStat::kMessages, QueryStat::kBytes, QueryStat::kPlanMessages,
          QueryStat::kDataMessages, QueryStat::kPlanBytes,
          QueryStat::kDataBytes, QueryStat::kClientBytes,
          QueryStat::kFailedMessages, QueryStat::kFragments}) {
      EXPECT_EQ(got[stat], solo[t][stat])
          << "tenant " << t << " " << QueryStatName(stat);
    }
    EXPECT_DOUBLE_EQ(got.simulated_seconds(), solo[t].simulated_seconds())
        << "tenant " << t;
  }
}

}  // namespace
}  // namespace nexus
