// Telemetry subsystem tests: the metrics registry, span tracer, wire-header
// propagation, Chrome trace export, EXPLAIN ANALYZE, and the two contracts
// the rest of the repo depends on —
//   1. ExecutionMetrics is read off a per-call query profile (repeated
//      Execute calls never double-count), and
//   2. with tracing disabled, execution is behaviorally identical (same
//      metered bytes, same fault traces) to a build without telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/query_profile.h"
#include "common/random.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "telemetry/explain.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;

/// Restores a clean telemetry state around every test in this file.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::SetEnabled(false);
    telemetry::ClearSpans();
  }
  ~TelemetryGuard() {
    telemetry::SetEnabled(false);
    telemetry::ClearSpans();
  }
};

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (objects/arrays/strings/numbers/literals).
// Enough to prove the Chrome trace export is loadable; Perfetto and Python's
// json module accept a superset.
// ---------------------------------------------------------------------------

struct JsonCursor {
  const std::string& s;
  size_t at = 0;

  void SkipWs() {
    while (at < s.size() && (s[at] == ' ' || s[at] == '\n' || s[at] == '\t' ||
                             s[at] == '\r')) {
      ++at;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (at < s.size() && s[at] == c) {
      ++at;
      return true;
    }
    return false;
  }
};

bool ParseJsonValue(JsonCursor* c);

bool ParseJsonString(JsonCursor* c) {
  if (!c->Eat('"')) return false;
  while (c->at < c->s.size() && c->s[c->at] != '"') {
    if (c->s[c->at] == '\\') ++c->at;
    ++c->at;
  }
  return c->at < c->s.size() && c->s[c->at++] == '"';
}

bool ParseJsonValue(JsonCursor* c) {
  c->SkipWs();
  if (c->at >= c->s.size()) return false;
  char ch = c->s[c->at];
  if (ch == '{') {
    ++c->at;
    if (c->Eat('}')) return true;
    do {
      if (!ParseJsonString(c)) return false;
      if (!c->Eat(':')) return false;
      if (!ParseJsonValue(c)) return false;
    } while (c->Eat(','));
    return c->Eat('}');
  }
  if (ch == '[') {
    ++c->at;
    if (c->Eat(']')) return true;
    do {
      if (!ParseJsonValue(c)) return false;
    } while (c->Eat(','));
    return c->Eat(']');
  }
  if (ch == '"') return ParseJsonString(c);
  if (c->s.compare(c->at, 4, "true") == 0) return c->at += 4, true;
  if (c->s.compare(c->at, 5, "false") == 0) return c->at += 5, true;
  if (c->s.compare(c->at, 4, "null") == 0) return c->at += 4, true;
  // Number.
  size_t start = c->at;
  if (ch == '-') ++c->at;
  while (c->at < c->s.size() &&
         (std::isdigit(static_cast<unsigned char>(c->s[c->at])) ||
          c->s[c->at] == '.' || c->s[c->at] == 'e' || c->s[c->at] == 'E' ||
          c->s[c->at] == '+' || c->s[c->at] == '-')) {
    ++c->at;
  }
  return c->at > start;
}

bool IsValidJson(const std::string& s) {
  JsonCursor c{s};
  if (!ParseJsonValue(&c)) return false;
  c.SkipWs();
  return c.at == s.size();
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreLazyStableAndShared) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter* a = reg.counter("test.hits");
  telemetry::Counter* b = reg.counter("test.hits");
  EXPECT_EQ(a, b);  // same name, same instrument, pointer stable
  a->Increment();
  a->Add(4);
  EXPECT_EQ(b->value(), 5);

  telemetry::Gauge* g = reg.gauge("test.level");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("test.level")->value(), 2.5);

  auto values = reg.CounterValues();
  EXPECT_EQ(values["test.hits"], 5);
  EXPECT_NE(reg.ToString().find("test.hits"), std::string::npos);

  reg.ResetForTest();
  EXPECT_EQ(a->value(), 0);  // zeroed in place; the pointer stays valid
}

TEST(MetricsRegistryTest, HistogramBucketsMeanAndQuantile) {
  telemetry::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
  for (int i = 0; i < 8; ++i) h.Record(10.0);
  h.Record(1000.0);
  EXPECT_EQ(h.count(), 9);
  EXPECT_NEAR(h.mean(), (8 * 10.0 + 1000.0) / 9.0, 1e-9);
  // The median lands in 10.0's bucket; its upper edge is 16.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 16.0);
  // The max quantile covers the 1000.0 outlier's bucket (upper edge 1024).
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 1024.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Span tracer.
// ---------------------------------------------------------------------------

TEST(SpanTest, DisabledGuardIsInertAndRecordsNothing) {
  TelemetryGuard guard;
  int64_t before = telemetry::SpanCount();
  {
    telemetry::SpanGuard span(telemetry::kCategoryEngine, "noop");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.AddCounter("rows", 1);  // must be a no-op, not a crash
  }
  EXPECT_EQ(telemetry::SpanCount(), before);
}

TEST(SpanTest, NestedGuardsParentAndIdsAreDeterministic) {
  TelemetryGuard guard;
  telemetry::SetEnabled(true);
  {
    telemetry::SpanGuard outer(telemetry::kCategoryCoordinator, "outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(outer.id(), 1u);
    EXPECT_EQ(outer.trace(), 1u);
    {
      telemetry::SpanGuard inner(telemetry::kCategoryOperator, "inner");
      EXPECT_EQ(inner.id(), 2u);
      EXPECT_EQ(inner.trace(), outer.trace());
      inner.AddCounter("rows", 42);
    }
  }
  std::vector<telemetry::SpanRecord> spans = telemetry::Spans();
  ASSERT_EQ(spans.size(), 2u);  // completion order: inner first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, 1u);
  EXPECT_EQ(spans[0].CounterOr("rows", -1), 42);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);  // root
  EXPECT_GE(spans[1].wall_dur_us, spans[0].wall_dur_us);

  // ClearSpans resets the id counters: a rerun traces identically.
  telemetry::ClearSpans();
  telemetry::SpanGuard again(telemetry::kCategoryCoordinator, "outer");
  EXPECT_EQ(again.id(), 1u);
}

TEST(SpanTest, MorselSpansParentUnderTheSubmittingSpan) {
  TelemetryGuard guard;
  telemetry::SetEnabled(true);
  uint64_t region_parent = 0;
  {
    telemetry::SpanGuard op(telemetry::kCategoryOperator, "scan-like");
    region_parent = op.id();
    std::atomic<int64_t> sum{0};
    ParallelFor(
        8, 1, [&](int64_t b, int64_t e) { sum.fetch_add(e - b); },
        /*threads=*/2);
    EXPECT_EQ(sum.load(), 8);
  }
  int64_t morsels = 0;
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    if (std::string(s.category) != telemetry::kCategoryMorsel) continue;
    ++morsels;
    EXPECT_EQ(s.parent, region_parent);
    EXPECT_GE(s.CounterOr("index", -1), 0);
  }
  EXPECT_EQ(morsels, 8);
}

TEST(WireHeaderTest, RoundTripsAndIgnoresHeaderlessWires) {
  std::string header = telemetry::WireHeader(7, 42, "relstore");
  std::string wire = header + "PAYLOAD";
  telemetry::TraceContext ctx;
  size_t offset = telemetry::StripWireHeader(wire, &ctx);
  ASSERT_NE(offset, 0u);
  EXPECT_EQ(wire.substr(offset), "PAYLOAD");
  EXPECT_EQ(ctx.trace, 7u);
  EXPECT_EQ(ctx.parent, 42u);
  EXPECT_EQ(ctx.server, "relstore");

  telemetry::TraceContext untouched;
  EXPECT_EQ(telemetry::StripWireHeader("PLAIN WIRE", &untouched), 0u);
  EXPECT_EQ(untouched.trace, 0u);
  // Short wires must not read out of bounds.
  EXPECT_EQ(telemetry::StripWireHeader("%", &untouched), 0u);
}

// ---------------------------------------------------------------------------
// Federated tracing end to end.
// ---------------------------------------------------------------------------

// Two matrix holders plus a linalg specialist: MatMul lands on linalg and
// both scans are remote fragments, so a single query touches three servers.
void FillMatMulCluster(Cluster* cluster) {
  ASSERT_OK(cluster->AddServer("relstore", MakeRelationalProvider()));
  ASSERT_OK(cluster->AddServer("relsmall", MakeRelationalProvider()));
  ASSERT_OK(cluster->AddServer("linalg", MakeLinalgProvider()));
  ASSERT_OK(cluster->AddServer("reference", MakeReferenceProvider()));
  auto matrix = [](uint64_t seed, const char* d0, const char* d1,
                   const char* attr) {
    Rng rng(seed);
    SchemaPtr s = MakeSchema({Field::Dim(d0), Field::Dim(d1),
                              Field::Attr(attr, DataType::kFloat64)});
    TableBuilder b(s);
    for (int64_t r = 0; r < 8; ++r) {
      for (int64_t c = 0; c < 8; ++c) {
        EXPECT_OK(b.AppendRow({I(r), I(c), F(rng.NextDouble(0.1, 1.0))}));
      }
    }
    return Dataset(b.Finish().ValueOrDie());
  };
  ASSERT_OK(cluster->PutData("relstore", "MA", matrix(31, "i", "k", "a")));
  ASSERT_OK(cluster->PutData("relsmall", "MB", matrix(32, "k", "j", "b")));
}

TEST(FederatedTraceTest, FaultyMultiServerQueryExportsOneStitchedTrace) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.25;
  f.seed = 7;
  cluster.transport()->SetFaultOptions(f);
  CoordinatorOptions opts;
  opts.retry.max_attempts = 8;
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  telemetry::SetEnabled(true);
  // Several queries share the deterministic fault stream; at least one must
  // hit a drop and retry. That query's trace is the acceptance exhibit.
  uint64_t trace = 0;
  for (int q = 0; q < 4 && trace == 0; ++q) {
    ExecutionMetrics m;
    ASSERT_OK(coord.Execute(mm, &m).status());
    if (m.profile[QueryStat::kRetries] > 0) trace = m.trace_id;
  }
  ASSERT_NE(trace, 0u) << "no query hit a fault + retry";

  // One stitched tree: every span of the chosen trace shares its id, and
  // the spans cover the client plus at least two distinct servers.
  std::set<std::string> servers;
  bool saw_retry_event = false, saw_server_span = false, saw_operator = false;
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    if (s.trace != trace) continue;
    if (!s.server.empty()) servers.insert(s.server);
    if (s.name.compare(0, 5, "retry") == 0) saw_retry_event = true;
    if (std::string(s.category) == telemetry::kCategoryServer) {
      saw_server_span = true;
    }
    if (std::string(s.category) == telemetry::kCategoryOperator) {
      saw_operator = true;
    }
  }
  EXPECT_GE(servers.size(), 2u) << "trace does not span multiple servers";
  EXPECT_TRUE(saw_retry_event);
  EXPECT_TRUE(saw_server_span) << "no provider-side span was stitched in";
  EXPECT_TRUE(saw_operator);

  // The Chrome export of that one trace is valid JSON with one process per
  // server, and round-trips through WriteChromeTrace.
  std::string json = telemetry::ToChromeTraceJson(telemetry::Spans(), trace);
  EXPECT_TRUE(IsValidJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"linalg\""), std::string::npos);
  ASSERT_OK(telemetry::WriteChromeTrace("telemetry_test_trace.json",
                                        telemetry::Spans(), trace));
}

// Traced queries whose sibling fragments dispatch concurrently, from
// several clients on one transport: threads stamp spans with the
// transport's simulated clock while other threads record message spans
// under the transport lock. Reading the clock while holding the tracer's
// lock inverted that lock order and deadlocked.
TEST(FederatedTraceTest, ConcurrentSiblingDispatchUnderTracingCompletes) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");
  ASSERT_OK_AND_ASSIGN(Dataset want_ds, Coordinator(&cluster).Execute(mm));
  ASSERT_OK_AND_ASSIGN(TablePtr want, want_ds.AsTable());
  telemetry::SetEnabled(true);
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      CoordinatorOptions opts;
      opts.thread_count = 4;
      Coordinator coord(&cluster, opts);
      for (int q = 0; q < 300; ++q) {
        Result<Dataset> got = coord.Execute(mm);
        Result<TablePtr> t = got.ok() ? got.ValueOrDie().AsTable()
                                      : Result<TablePtr>(got.status());
        if (!t.ok() || !t.ValueOrDie()->Equals(*want)) ++bad;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(telemetry::SpanCount(), 0);
}

TEST(FederatedTraceTest, ExplainAnalyzeShowsFragmentsRowsAndServers) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  CoordinatorOptions opts;
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  ExecutionMetrics m;
  auto report = coord.ExplainAnalyze(mm, &m);
  ASSERT_OK(report.status());
  const std::string& text = report.ValueOrDie();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("fragment -> linalg"), std::string::npos);
  EXPECT_NE(text.find("@linalg"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("bytes="), std::string::npos);
  EXPECT_NE(text.find("wall="), std::string::npos);
  EXPECT_NE(text.find("sim="), std::string::npos);
  EXPECT_GT(m.profile[QueryStat::kFragments], 0);  // metrics ride along
  // ExplainAnalyze restores the caller's tracing state (disabled here).
  EXPECT_FALSE(telemetry::Enabled());
}

// EXPLAIN ANALYZE traces through its own thread's context rather than the
// process-wide switch, so a query running alongside it stays untraced.
TEST(FederatedTraceTest, ExplainAnalyzeLeavesConcurrentQueriesUntraced) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");
  std::set<uint64_t> explained;
  std::atomic<bool> done{false};
  std::atomic<int> dark_runs{0};
  std::atomic<int> saw_tracing{0};
  std::thread dark([&] {
    CoordinatorOptions opts;
    Coordinator coord(&cluster, opts);
    while (!done.load() || dark_runs.load() == 0) {
      if (telemetry::Enabled()) saw_tracing.fetch_add(1);
      EXPECT_OK(coord.Execute(mm).status());
      dark_runs.fetch_add(1);
    }
  });
  {
    CoordinatorOptions opts;
    Coordinator coord(&cluster, opts);
    for (int q = 0; q < 20; ++q) {
      ExecutionMetrics m;
      ASSERT_OK(coord.ExplainAnalyze(mm, &m).status());
      explained.insert(m.trace_id);
    }
    done.store(true);
  }
  dark.join();
  EXPECT_GT(dark_runs.load(), 0);
  EXPECT_EQ(saw_tracing.load(), 0);
  EXPECT_FALSE(telemetry::Enabled());
  ASSERT_GT(telemetry::SpanCount(), 0);
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    EXPECT_EQ(explained.count(s.trace), 1u)
        << "span '" << s.name << "' belongs to no EXPLAIN ANALYZE trace";
  }
}

// ---------------------------------------------------------------------------
// ExecutionMetrics = per-call profile (no double-counting).
// ---------------------------------------------------------------------------

TEST(MetricsDeltaTest, RepeatedExecutesOnOneCoordinatorDoNotAccumulate) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  CoordinatorOptions opts;
  opts.thread_count = 1;
  // This test pins identical per-call accounting across re-executions; the
  // plan cache would legitimately shrink later calls (fingerprint references
  // instead of full plans), so it is held off here.
  opts.plan_cache = false;
  Coordinator coord(&cluster, opts);
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  int64_t fragments0 = telemetry::MetricsRegistry::Global()
                           .counter("coordinator.fragments")
                           ->value();
  ExecutionMetrics first;
  ASSERT_OK(coord.Execute(mm, &first).status());
  ASSERT_GT(first.profile[QueryStat::kFragments], 0);
  ASSERT_GT(first.profile[QueryStat::kMessages], 0);
  for (int q = 0; q < 3; ++q) {
    ExecutionMetrics again;
    ASSERT_OK(coord.Execute(mm, &again).status());
    // Identical query, identical per-call accounting — cumulative registry
    // counters must not leak into later calls.
    EXPECT_EQ(again.profile[QueryStat::kFragments],
              first.profile[QueryStat::kFragments]) << "call " << q;
    EXPECT_EQ(again.profile[QueryStat::kMessages],
              first.profile[QueryStat::kMessages]) << "call " << q;
    // Temps are named by plan position, so the bytes repeat exactly.
    EXPECT_EQ(again.profile[QueryStat::kBytes],
              first.profile[QueryStat::kBytes])
        << "call " << q;
    EXPECT_EQ(again.profile[QueryStat::kRetries], 0) << "call " << q;
  }
  // Meanwhile the registry view is cumulative across all four calls.
  int64_t fragments_cum = telemetry::MetricsRegistry::Global()
                              .counter("coordinator.fragments")
                              ->value() -
                          fragments0;
  EXPECT_EQ(fragments_cum, 4 * first.profile[QueryStat::kFragments]);
}

// ---------------------------------------------------------------------------
// One table of stat names; one renderer.
// ---------------------------------------------------------------------------

constexpr int kNumStats = static_cast<int>(QueryStat::kCount_);

TEST(QueryStatTableTest, EveryStatHasOneDistinctGroupedName) {
  std::set<std::string> names;
  for (int i = 0; i < kNumStats; ++i) {
    const char* name = QueryStatName(static_cast<QueryStat>(i));
    ASSERT_NE(name, nullptr) << "stat " << i;
    const std::string n(name);
    const size_t dot = n.find('.');
    EXPECT_NE(dot, std::string::npos) << n;
    EXPECT_GT(dot, 0u) << n;
    EXPECT_LT(dot + 1, n.size()) << n;
    EXPECT_TRUE(names.insert(n).second) << "duplicate name " << n;
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStats));
  // Existing registry names are kept.
  EXPECT_STREQ(QueryStatName(QueryStat::kFragments), "coordinator.fragments");
  EXPECT_STREQ(QueryStatName(QueryStat::kPlanCacheHits),
               "provider.plan_cache_hit");
  EXPECT_STREQ(QueryStatName(QueryStat::kSpillBytes), "spill.bytes_written");
}

TEST(QueryProfileRenderTest, PrintsExactlyTheNonzeroStatsGroupedByPrefix) {
  EXPECT_EQ(QueryProfile().ToString(), "");
  // Each stat alone renders as its own group, under its own name.
  for (int i = 0; i < kNumStats; ++i) {
    const auto stat = static_cast<QueryStat>(i);
    QueryProfile p;
    p.Add(stat, i + 1);
    const std::string name = QueryStatName(stat);
    const size_t dot = name.find('.');
    EXPECT_EQ(p.ToString(), StrCat(name.substr(0, dot), ": ",
                                   name.substr(dot + 1), "=", i + 1));
  }
  // Groups keep the order of first appearance, also when a group's stats
  // are not adjacent in the table (transport.bytes_saved).
  QueryProfile p;
  p.Add(QueryStat::kRetries, 1);
  p.Add(QueryStat::kFragments, 3);
  p.Add(QueryStat::kWireBytesSaved, 40);
  p.Add(QueryStat::kMessages, 5);
  p.Add(QueryStat::kPlanCacheMisses, 2);
  p.Add(QueryStat::kRetries, -1);  // back to zero: not printed
  EXPECT_EQ(p.ToString(),
            "transport: messages=5 bytes_saved=40\n"
            "coordinator: fragments=3\n"
            "provider: plan_cache_miss=2");
  EXPECT_EQ(p.ToString("  "),
            "transport: messages=5 bytes_saved=40  coordinator: fragments=3  "
            "provider: plan_cache_miss=2");
}

// Zero-overhead contract: a fault-free run's metrics line names no fault
// recovery at all.
TEST(QueryProfileRenderTest, FaultFreeExecuteShowsNoRecoveryStats) {
  TelemetryGuard guard;
  Cluster cluster;
  FillMatMulCluster(&cluster);
  Coordinator coord(&cluster);
  ExecutionMetrics m;
  ASSERT_OK(coord.Execute(
                     Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c"), &m)
                .status());
  const std::string line = m.ToString();
  EXPECT_EQ(line.find("wall="), 0u) << line;
  EXPECT_NE(line.find("coordinator: fragments="), std::string::npos) << line;
  EXPECT_NE(line.find("transport: messages="), std::string::npos) << line;
  for (const char* absent : {"retries=", "failovers=", "timeouts="}) {
    EXPECT_EQ(line.find(absent), std::string::npos)
        << absent << " in " << line;
  }
}

// ---------------------------------------------------------------------------
// Each query's spans read its own cluster's simulated clock.
// ---------------------------------------------------------------------------

TEST(SimClockTest, ConcurrentTracedQueriesStampTheirOwnClusterClock) {
  TelemetryGuard guard;
  TransportOptions fast;
  fast.latency_seconds = 0.001;
  TransportOptions slow;
  slow.latency_seconds = 1.0;
  Cluster clusters[2] = {Cluster(fast), Cluster(slow)};
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");
  for (Cluster& c : clusters) FillMatMulCluster(&c);
  // An untraced warm-up moves the slow clock well past the fast one's whole
  // range, so a span stamped from the other cluster's clock cannot land
  // inside its own range by chance.
  ASSERT_OK(Coordinator(&clusters[1]).Execute(mm).status());

  struct Run {
    double sim_begin_us = 0.0, sim_end_us = 0.0;
    std::set<uint64_t> traces;
  };
  Run runs[2];
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      Transport* t = clusters[i].transport();
      Coordinator coord(&clusters[i]);
      runs[i].sim_begin_us = t->simulated_seconds() * 1e6;
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      // Enough rounds that the two threads' queries overlap in time.
      for (int q = 0; q < 100; ++q) {
        ScopedQuery traced(/*trace=*/true);
        ExecutionMetrics m;
        EXPECT_OK(coord.Execute(mm, &m).status());
        runs[i].traces.insert(m.trace_id);
      }
      runs[i].sim_end_us = t->simulated_seconds() * 1e6;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_GT(runs[1].sim_begin_us, runs[0].sim_end_us);

  int64_t checked = 0;
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    const int i = runs[0].traces.count(s.trace) != 0 ? 0 : 1;
    ASSERT_EQ(runs[i].traces.count(s.trace), 1u) << s.name;
    const double slack = 1e-3;  // microseconds of rounding
    EXPECT_GE(s.sim_start_us, runs[i].sim_begin_us - slack)
        << "cluster " << i << " span " << s.name;
    EXPECT_LE(s.sim_start_us + s.sim_dur_us, runs[i].sim_end_us + slack)
        << "cluster " << i << " span " << s.name;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Disabled telemetry is behaviorally invisible.
// ---------------------------------------------------------------------------

std::string MeteredRun(const PlanPtr& plan) {
  Cluster cluster;
  FillMatMulCluster(&cluster);
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.3;
  f.latency_spike_probability = 0.1;
  f.seed = 5;
  cluster.transport()->SetFaultOptions(f);
  CoordinatorOptions opts;
  opts.retry.max_attempts = 8;
  opts.thread_count = 1;
  Coordinator coord(&cluster, opts);
  std::string out;
  for (int q = 0; q < 3; ++q) {
    ExecutionMetrics m;
    EXPECT_OK(coord.Execute(plan, &m).status());
    m.wall_seconds = 0.0;  // the only nondeterministic field
    out += m.ToString() + "\n";
  }
  for (const FaultEvent& e : cluster.transport()->fault_log()) {
    out += e.ToString() + "\n";
  }
  return out;
}

TEST(DisabledTelemetryTest, TogglingTracingLeavesDisabledRunsByteIdentical) {
  TelemetryGuard guard;
  PlanPtr mm = Plan::MatMul(Plan::Scan("MA"), Plan::Scan("MB"), "c");

  std::string before = MeteredRun(mm);
  telemetry::SetEnabled(true);
  std::string traced = MeteredRun(mm);
  telemetry::SetEnabled(false);
  std::string after = MeteredRun(mm);

  // Tracing off: metered bytes and the seeded fault trace replay exactly —
  // enabling telemetry in between must leave no residue.
  EXPECT_EQ(before, after);
  // Tracing on is *visible* (wire headers cost bytes), proving the off path
  // really is the untraced byte stream rather than a lucky match.
  EXPECT_NE(before, traced);
}

// ---------------------------------------------------------------------------
// NEXUS_LOG_LEVEL.
// ---------------------------------------------------------------------------

TEST(LogLevelEnvTest, ParsesNamesAndIntegers) {
  auto with_env = [](const char* value) {
    if (value == nullptr) {
      unsetenv("NEXUS_LOG_LEVEL");
    } else {
      setenv("NEXUS_LOG_LEVEL", value, 1);
    }
    LogLevel level = internal::LogLevelFromEnv();
    unsetenv("NEXUS_LOG_LEVEL");
    return level;
  };
  EXPECT_EQ(with_env(nullptr), LogLevel::kWarning);  // default
  EXPECT_EQ(with_env("debug"), LogLevel::kDebug);
  EXPECT_EQ(with_env("INFO"), LogLevel::kInfo);
  EXPECT_EQ(with_env("Warn"), LogLevel::kWarning);
  EXPECT_EQ(with_env("error"), LogLevel::kError);
  EXPECT_EQ(with_env("fatal"), LogLevel::kFatal);
  EXPECT_EQ(with_env("0"), LogLevel::kDebug);
  EXPECT_EQ(with_env("3"), LogLevel::kError);
  EXPECT_EQ(with_env("99"), LogLevel::kWarning);      // out of range
  EXPECT_EQ(with_env("gibberish"), LogLevel::kWarning);
  // SetLogLevel still rules the live threshold.
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(saved);
}

}  // namespace
}  // namespace nexus
