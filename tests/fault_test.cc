// Fault-model tests: the transport's deterministic fault injection
// (drops, partitions, scripted down windows, latency spikes) and the
// seeded-chaos property the recovery machinery is verified against —
// same seed ⇒ same retry/failover trace.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "exec/spill/spill.h"
#include "expr/builder.h"
#include "expr/bytecode.h"
#include "federation/coordinator.h"
#include "service/server.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;

TEST(StatusRetryabilityTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(IsRetryable(Status::Unavailable("down")));
  EXPECT_TRUE(IsRetryable(Status::Timeout("lost")));
  EXPECT_TRUE(IsRetryable(Status::ResourceExhausted("overloaded")));
  EXPECT_FALSE(IsRetryable(Status::Cancelled("client asked")));
  EXPECT_FALSE(IsRetryable(Status::OK()));
  EXPECT_FALSE(IsRetryable(Status::NotFound("x")));
  EXPECT_FALSE(IsRetryable(Status::PlanError("x")));
  EXPECT_FALSE(IsRetryable(Status::Internal("x")));
  EXPECT_EQ(std::string(StatusCodeToString(StatusCode::kUnavailable)),
            "Unavailable");
  EXPECT_EQ(std::string(StatusCodeToString(StatusCode::kTimeout)), "Timeout");
}

TEST(FaultInjectionTest, TrySendIsSendWhenDisabled) {
  Transport plain, faulty;
  faulty.SetFaultOptions(FaultOptions{});  // enabled = false
  double s1 = plain.Send("client", "a", 1000, MessageKind::kData);
  double s2 = 0.0;
  ASSERT_OK(faulty.TrySend("client", "a", 1000, MessageKind::kData, &s2));
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_EQ(plain.total_bytes(), faulty.total_bytes());
  EXPECT_EQ(plain.total_messages(), faulty.total_messages());
  EXPECT_DOUBLE_EQ(plain.simulated_seconds(), faulty.simulated_seconds());
  EXPECT_EQ(faulty.faults_injected(), 0);
  EXPECT_EQ(faulty.failed_messages(), 0);
}

TEST(FaultInjectionTest, DropsAreDeterministicPerSeed) {
  auto trace = [](uint64_t seed) {
    Transport t;
    FaultOptions f;
    f.enabled = true;
    f.drop_probability = 0.3;
    f.seed = seed;
    t.SetFaultOptions(f);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(t.TrySend("client", "a", 100, MessageKind::kData).ok());
    }
    return outcomes;
  };
  std::vector<bool> a = trace(1);
  EXPECT_EQ(a, trace(1));   // same seed, same fault pattern
  EXPECT_NE(a, trace(2));   // different seed, different pattern
  // Roughly 30% of 64 sends should be lost (sanity, not a tight bound).
  int64_t drops = 0;
  for (bool ok : a) drops += !ok;
  EXPECT_GT(drops, 5);
  EXPECT_LT(drops, 40);
}

TEST(FaultInjectionTest, DroppedMessageIsTimeoutAndMeteredAsWaste) {
  Transport t;
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 1.0;
  t.SetFaultOptions(f);
  Status st = t.TrySend("client", "a", 500, MessageKind::kPlan);
  EXPECT_TRUE(st.IsTimeout());
  EXPECT_TRUE(IsRetryable(st));
  EXPECT_EQ(t.failed_messages(), 1);
  EXPECT_EQ(t.failed_bytes(), 500);
  EXPECT_EQ(t.total_messages(), 1);  // the wasted attempt is in the log
  ASSERT_EQ(t.fault_log().size(), 1u);
  EXPECT_EQ(t.fault_log()[0].what, "drop");
}

TEST(FaultInjectionTest, PartitionedLinkIsUnavailableUntilHealed) {
  Transport t;
  FaultOptions f;
  f.enabled = true;
  f.partitioned_links = {{"a", "b"}};
  t.SetFaultOptions(f);
  EXPECT_TRUE(t.IsPartitioned("a", "b"));
  EXPECT_TRUE(t.IsPartitioned("b", "a"));  // unordered pair
  Status st = t.TrySend("a", "b", 10, MessageKind::kData);
  EXPECT_TRUE(st.IsUnavailable());
  ASSERT_OK(t.TrySend("a", "c", 10, MessageKind::kData));  // other links fine
  t.HealLink("b", "a");
  ASSERT_OK(t.TrySend("a", "b", 10, MessageKind::kData));
  t.PartitionLink("a", "c");
  EXPECT_TRUE(t.TrySend("c", "a", 10, MessageKind::kData).IsUnavailable());
}

TEST(FaultInjectionTest, DownWindowFollowsSimulatedTime) {
  Transport t;
  FaultOptions f;
  f.enabled = true;
  f.down_windows = {{"srv", 0.0, 1.0}};
  t.SetFaultOptions(f);
  EXPECT_TRUE(t.IsDown("srv"));
  Status st = t.TrySend("client", "srv", 10, MessageKind::kPlan);
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(t.fault_log().back().what, "down:srv");
  // The failed attempt charged one latency; waiting out the window works.
  t.AdvanceTime(1.5);
  EXPECT_FALSE(t.IsDown("srv"));
  ASSERT_OK(t.TrySend("client", "srv", 10, MessageKind::kPlan));
  // The client endpoint can never be down.
  EXPECT_FALSE(t.IsDown("client"));
}

TEST(FaultInjectionTest, LatencySpikeChargesExtraTime) {
  TransportOptions net;
  net.latency_seconds = 0.001;
  net.bandwidth_bytes_per_second = 1e9;
  Transport t(net);
  FaultOptions f;
  f.enabled = true;
  f.latency_spike_probability = 1.0;
  f.latency_spike_seconds = 0.25;
  t.SetFaultOptions(f);
  double s = 0.0;
  ASSERT_OK(t.TrySend("client", "a", 1000, MessageKind::kData, &s));
  EXPECT_GT(s, 0.25);
  EXPECT_GT(t.simulated_seconds(), 0.25);
  EXPECT_EQ(t.fault_log().back().what, "spike");
  EXPECT_EQ(t.failed_messages(), 0);  // spikes delay, they don't fail
}

TEST(FaultInjectionTest, ResetClearsTraceAndReseeds) {
  Transport t;
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.5;
  f.seed = 9;
  t.SetFaultOptions(f);
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i) {
    first.push_back(t.TrySend("client", "a", 10, MessageKind::kData).ok());
  }
  t.Reset();
  EXPECT_EQ(t.faults_injected(), 0);
  EXPECT_EQ(t.total_messages(), 0);
  std::vector<bool> second;
  for (int i = 0; i < 32; ++i) {
    second.push_back(t.TrySend("client", "a", 10, MessageKind::kData).ok());
  }
  EXPECT_EQ(first, second);  // reseeded: the run replays identically
}

// ---------------------------------------------------------------------------
// Seeded chaos: end-to-end determinism of retries and failover.
// ---------------------------------------------------------------------------

struct ChaosRun {
  std::vector<std::string> fault_trace;
  std::string metrics;
  int64_t retries = 0;
  bool ok = false;
};

// Builds a two-holder cluster, injects seeded faults, and runs the same
// pipeline query; everything downstream of the seed must be reproducible.
// The process-wide expression program cache is emptied first, so the
// metrics lines' expr counts do not depend on which run went first.
ChaosRun RunChaos(uint64_t fault_seed, uint64_t jitter_seed) {
  ClearProgramCacheForTest();
  Cluster cluster;
  EXPECT_OK(cluster.AddServer("relstore", MakeRelationalProvider()));
  EXPECT_OK(cluster.AddServer("reference", MakeReferenceProvider()));
  Rng rng(11);
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t i = 0; i < 500; ++i) {
    EXPECT_OK(b.AppendRow({I(rng.NextInt(0, 9)), F(rng.NextDouble(0, 10))}));
  }
  EXPECT_OK(cluster.PutData("relstore", "events",
                            Dataset(b.Finish().ValueOrDie())));
  EXPECT_OK(cluster.Replicate("events", "reference"));

  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.3;
  f.latency_spike_probability = 0.1;
  f.seed = fault_seed;
  cluster.transport()->SetFaultOptions(f);

  CoordinatorOptions opts;
  opts.retry.max_attempts = 6;
  opts.retry.jitter_seed = jitter_seed;
  // The same-seed ⇒ same-trace invariant is promised at sequential dispatch
  // only: concurrent siblings interleave their transport sends, so the fault
  // stream's consumption order depends on scheduling. Pinning thread_count
  // keeps this harness reproducible under any process-wide budget
  // (NEXUS_THREADS, TSan CI).
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);

  PlanPtr p = Plan::Aggregate(
      Plan::Select(Plan::Scan("events"), Gt(Col("v"), Lit(3.0))), {"k"},
      {AggSpec{AggFunc::kSum, Col("v"), "sv"}});
  ChaosRun out;
  for (int q = 0; q < 4; ++q) {  // several executions share the fault stream
    ExecutionMetrics m;
    auto r = coord.Execute(p, &m);
    out.ok = r.ok();
    if (!r.ok()) break;
    out.retries += m.profile[QueryStat::kRetries];
    m.wall_seconds = 0.0;  // the only nondeterministic field
    out.metrics += m.ToString() + "\n";
  }
  for (const FaultEvent& e : cluster.transport()->fault_log()) {
    out.fault_trace.push_back(e.ToString());
  }
  return out;
}

TEST(ChaosTest, SameSeedSameRetryAndFailoverTrace) {
  ChaosRun a = RunChaos(/*fault_seed=*/5, /*jitter_seed=*/17);
  ChaosRun b = RunChaos(/*fault_seed=*/5, /*jitter_seed=*/17);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_GT(a.fault_trace.size(), 0u) << "chaos run injected no faults";
  EXPECT_GT(a.retries, 0);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(ChaosTest, DifferentSeedDifferentTrace) {
  ChaosRun a = RunChaos(/*fault_seed=*/5, /*jitter_seed=*/17);
  ChaosRun c = RunChaos(/*fault_seed=*/6, /*jitter_seed=*/17);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(c.ok);
  EXPECT_NE(a.fault_trace, c.fault_trace);
}

TEST(ChaosTest, TraceInvariantHoldsUnderAnyProcessBudget) {
  // RunChaos pins CoordinatorOptions::thread_count = 1, which must shield
  // the trace from the process-wide budget (e.g. NEXUS_THREADS=4 in CI).
  struct Guard {
    int saved = GetThreadCount();
    ~Guard() { SetThreadCount(saved); }
  } guard;
  SetThreadCount(1);
  ChaosRun a = RunChaos(/*fault_seed=*/5, /*jitter_seed=*/17);
  SetThreadCount(4);
  ChaosRun b = RunChaos(/*fault_seed=*/5, /*jitter_seed=*/17);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

// ---------------------------------------------------------------------------
// Concurrent sibling-fragment dispatch under faults: the retry ladder and
// failover replanning must hold when fragments execute in parallel.
// ---------------------------------------------------------------------------

// Two matrix holders plus a linalg specialist: MatMul lands on linalg and
// both scan children become remote sibling fragments, so they dispatch
// concurrently when the thread budget allows.
void FillMatMulCluster(Cluster* cluster, bool with_replicas) {
  EXPECT_OK(cluster->AddServer("relstore", MakeRelationalProvider()));
  EXPECT_OK(cluster->AddServer("relsmall", MakeRelationalProvider()));
  EXPECT_OK(cluster->AddServer("linalg", MakeLinalgProvider()));
  EXPECT_OK(cluster->AddServer("reference", MakeReferenceProvider()));
  auto matrix = [](uint64_t seed, const char* d0, const char* d1,
                   const char* attr) {
    Rng rng(seed);
    SchemaPtr s = MakeSchema({Field::Dim(d0), Field::Dim(d1),
                              Field::Attr(attr, DataType::kFloat64)});
    TableBuilder b(s);
    for (int64_t r = 0; r < 12; ++r) {
      for (int64_t c = 0; c < 12; ++c) {
        EXPECT_OK(b.AppendRow({I(r), I(c), F(rng.NextDouble(0.1, 1.0))}));
      }
    }
    return Dataset(b.Finish().ValueOrDie());
  };
  EXPECT_OK(cluster->PutData("relstore", "MA", matrix(31, "i", "k", "a")));
  EXPECT_OK(cluster->PutData("relsmall", "MB", matrix(32, "k", "j", "b")));
  if (with_replicas) {
    EXPECT_OK(cluster->Replicate("MA", "reference"));
    EXPECT_OK(cluster->Replicate("MB", "reference"));
  }
}

TEST(ParallelDispatchTest, ConcurrentSiblingsHonorRetryPolicy) {
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  // Fault-free sequential baseline.
  Cluster clean;
  FillMatMulCluster(&clean, /*with_replicas=*/false);
  CoordinatorOptions seq;
  seq.thread_count = 1;
  Dataset want = Coordinator(&clean, seq).Execute(mm).ValueOrDie();

  // Lossy transport, concurrent dispatch: completion via retries, and the
  // result must not change.
  Cluster faulty;
  FillMatMulCluster(&faulty, /*with_replicas=*/false);
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.25;
  f.seed = 7;
  faulty.transport()->SetFaultOptions(f);
  CoordinatorOptions par;
  par.retry.max_attempts = 8;
  par.thread_count = 4;
  Coordinator coord(&faulty, par);
  // Several executions share the fault stream; every one must complete and
  // agree with the clean baseline.
  int64_t retries = 0, parallel_fragments = 0;
  for (int q = 0; q < 4; ++q) {
    ExecutionMetrics m;
    Dataset got = coord.Execute(mm, &m).ValueOrDie();
    EXPECT_TRUE(got.LogicallyEquals(want)) << "query " << q;
    EXPECT_EQ(m.threads_used, 4);
    retries += m.profile[QueryStat::kRetries];
    parallel_fragments += m.profile[QueryStat::kParallelFragments];
  }
  EXPECT_GE(parallel_fragments, 2) << "siblings did not dispatch concurrently";
  EXPECT_GT(retries, 0) << "the lossy transport injected no retries";
}

TEST(ParallelDispatchTest, ConcurrentDispatchFailsOverDownServer) {
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  Cluster clean;
  FillMatMulCluster(&clean, /*with_replicas=*/true);
  CoordinatorOptions seq;
  seq.thread_count = 1;
  Dataset want = Coordinator(&clean, seq).Execute(mm).ValueOrDie();

  // relstore stays down long past the retry ladder; the replica on the
  // reference server is the only way through.
  Cluster faulty;
  FillMatMulCluster(&faulty, /*with_replicas=*/true);
  FaultOptions f;
  f.enabled = true;
  f.down_windows = {{"relstore", 0.0, 1000.0}};
  faulty.transport()->SetFaultOptions(f);
  CoordinatorOptions par;
  par.retry.max_attempts = 3;
  par.thread_count = 4;
  Coordinator coord(&faulty, par);
  ExecutionMetrics m;
  Dataset got = coord.Execute(mm, &m).ValueOrDie();
  EXPECT_TRUE(got.LogicallyEquals(want));
  EXPECT_GE(m.profile[QueryStat::kFailovers], 1)
      << "the down server was never excluded";
  EXPECT_GE(m.profile[QueryStat::kReplans], 1);
}

bool AnyTempLeft(Cluster* cluster) {
  for (const std::string& s : cluster->ServerNames()) {
    for (const std::string& name : cluster->provider(s)->catalog()->Names()) {
      if (name.rfind("__frag_", 0) == 0 || name.rfind("__svc_", 0) == 0) {
        return true;
      }
    }
  }
  return false;
}

TEST(ConcurrentCoordinatorTest, ManyCoordinatorsOneSharedCatalog) {
  // Thread-safety soak: several client threads, each with its own
  // Coordinator (the cluster leases each running call its own temp
  // namespace), hammer one shared cluster (one transport, one set of
  // InMemoryCatalogs). Every execution must agree with the sequential
  // baseline and no temp may leak — under TSan in CI this is also the
  // data-race check for the shared-transport locking.
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");
  Cluster shared;
  FillMatMulCluster(&shared, /*with_replicas=*/false);
  CoordinatorOptions seq;
  seq.thread_count = 1;
  Dataset want = Coordinator(&shared, seq).Execute(mm).ValueOrDie();

  constexpr int kClients = 6;
  constexpr int kQueriesEach = 4;
  std::atomic<int> disagreements{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      CoordinatorOptions o;
      o.thread_count = 1;  // concurrency comes from the client threads
      Coordinator coordinator(&shared, o);
      for (int q = 0; q < kQueriesEach; ++q) {
        auto r = coordinator.Execute(mm);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else if (!r.ValueOrDie().LogicallyEquals(want)) {
          disagreements.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(disagreements.load(), 0);
  EXPECT_FALSE(AnyTempLeft(&shared));
}

TEST(ServiceFaultTest, CancelledWhileQueuedReleasesStagedTemps) {
  // Regression: a query admitted to the service queue — its bindings
  // already staged server-side — then cancelled before it ever executed
  // must release those temps. (The window used to be unguarded: cleanup
  // only ran on the execution path.)
  Cluster cluster;
  FillMatMulCluster(&cluster, /*with_replicas=*/false);
  service::ServerOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 2;
  service::Server server(&cluster, options);
  ASSERT_OK(server.RegisterTenant("held", service::TenantOptions{100, 1}));
  ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("held"));
  // Pin the tenant over budget so its query waits, ineligible, in queue.
  ASSERT_OK_AND_ASSIGN(auto pin, server.governor().StartQuery("held", nullptr));
  pin->Charge(1000);

  Rng rng(5);
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64),
                            Field::Attr("y", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_OK(b.AppendRow({I(i), F(rng.NextDouble(0, 1))}));
  }
  std::vector<std::pair<std::string, Dataset>> bindings;
  bindings.emplace_back("staged", Dataset(b.Finish().ValueOrDie()));
  ASSERT_OK_AND_ASSIGN(
      int64_t query,
      server.Submit(session, Plan::Scan("staged"), {}, std::move(bindings)));
  for (int i = 0; i < 20000 && server.admission().queued_now() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.admission().queued_now(), 1);
  EXPECT_TRUE(AnyTempLeft(&cluster));  // the staged binding is live

  ASSERT_OK(server.Cancel(query));
  Status st = server.Wait(query).status();
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_FALSE(AnyTempLeft(&cluster)) << "queued-cancel leaked staged temps";
  server.governor().FinishQuery(pin.get());
}

TEST(ServiceFaultTest, SpillScratchIsReapedOnEveryUnwindPath) {
  // Leak regression for out-of-core execution: scratch files are RAII
  // handles, so every unwind path — clean completion, deadline timeout,
  // budget kill, client cancel, retry/failover storms, and server
  // shutdown with queries still in flight — must leave zero live spill
  // files behind. Both tenants spill at 1 byte, so every join/aggregate
  // goes out of core.
  auto& manager = spill::SpillManager::Global();
  const int64_t created_before = manager.files_created();

  Cluster cluster;
  ASSERT_OK(cluster.AddServer("relstore", MakeRelationalProvider()));
  Rng rng(11);
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_OK(b.AppendRow({I(rng.NextInt(0, 9)), F(rng.NextDouble(0, 10))}));
  }
  ASSERT_OK(cluster.PutData("relstore", "events",
                            Dataset(b.Finish().ValueOrDie())));
  PlanPtr plan = Plan::Aggregate(
      Plan::Select(Plan::Scan("events"), Gt(Col("v"), Lit(3.0))), {"k"},
      {AggSpec{AggFunc::kSum, Col("v"), "sv"}});

  {
    service::Server server(&cluster);
    ASSERT_OK(server.RegisterTenant("acme", service::TenantOptions{0, 1, 1}));
    ASSERT_OK(server.RegisterTenant("hog", service::TenantOptions{1, 1, 1}));
    ASSERT_OK_AND_ASSIGN(int64_t session, server.OpenSession("acme"));
    ASSERT_OK_AND_ASSIGN(int64_t hog_session, server.OpenSession("hog"));

    // Clean completion: the query really spilled, and reaped its scratch.
    ASSERT_OK(server.Execute(session, plan).status());
    EXPECT_GT(manager.files_created(), created_before);
    EXPECT_EQ(manager.live_files(), 0);

    // Deadline exceeded mid-flight (deterministic under simulated time).
    service::QueryOptions dl;
    dl.deadline_seconds = 1e-4;
    EXPECT_TRUE(server.Execute(session, plan, dl).status().IsTimeout());
    EXPECT_EQ(manager.live_files(), 0);

    // Budget kill: even spilling can't fit a 1-byte tenant, so the query
    // unwinds through the kResourceExhausted path mid-spill.
    Status killed = server.Execute(hog_session, plan).status();
    EXPECT_TRUE(killed.IsResourceExhausted()) << killed;
    EXPECT_EQ(manager.live_files(), 0);

    // Client cancel racing the run: whichever side wins, nothing leaks.
    ASSERT_OK_AND_ASSIGN(int64_t q, server.Submit(session, plan));
    (void)server.Cancel(q);
    (void)server.Wait(q);
    EXPECT_EQ(manager.live_files(), 0);

    // Leave a query in flight for the shutdown path below.
    ASSERT_OK_AND_ASSIGN(int64_t in_flight, server.Submit(session, plan));
    (void)in_flight;
  }
  // ~Server cancelled and joined the in-flight query, then swept scratch.
  EXPECT_EQ(manager.live_files(), 0);
  EXPECT_EQ(manager.live_bytes(), 0);

  // Retry/failover storms under injected faults reap scratch too.
  testing::ScopedBudget budget(1);
  ChaosRun chaos = RunChaos(/*fault_seed=*/7, /*jitter_seed=*/9);
  (void)chaos;
  EXPECT_EQ(manager.live_files(), 0);
}

}  // namespace
}  // namespace nexus
