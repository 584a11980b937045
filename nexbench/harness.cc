#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "frontend/bdl.h"
#include "layers.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

#ifndef NEXBENCH_BUILD_TYPE
#define NEXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NEXBENCH_COMPILER
#define NEXBENCH_COMPILER "unknown"
#endif

namespace nexbench {

namespace telemetry = nexus::telemetry;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), val.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: nexbench --workload <olap_star|graph_linalg|tenant_mix>"
                 " --seed <n> --seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL ^ (a + 0x632BE59BD9B4E019ULL) *
                                                  0xBF58476D1CE4E5B9ULL ^
               (b + 1) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  return x;
}

const Template& PickVariant(const std::vector<Template>& templates,
                            const std::string& family, uint64_t seed, int c,
                            int64_t i) {
  std::vector<const Template*> variants;
  for (const Template& t : templates) {
    if (t.name == family) variants.push_back(&t);
  }
  NEXUS_CHECK(!variants.empty()) << "no template " << family;
  return *variants[Mix(seed, static_cast<uint64_t>(c), static_cast<uint64_t>(i)) %
                   variants.size()];
}

TablePtr IntTable(std::vector<std::string> names,
                  std::vector<std::vector<int64_t>> cols) {
  std::vector<nexus::Field> fields;
  std::vector<nexus::Column> columns;
  for (size_t i = 0; i < names.size(); ++i) {
    fields.push_back(nexus::Field::Attr(names[i], nexus::DataType::kInt64));
    columns.push_back(nexus::Column::FromInt64(std::move(cols[i])));
  }
  return nexus::Table::Make(nexus::Schema::Make(fields).ValueOrDie(),
                            std::move(columns))
      .ValueOrDie();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

namespace {

bool CellsClose(const nexus::Column& a, int64_t ra, const nexus::Column& b,
                int64_t rb) {
  if (a.IsNull(ra) || b.IsNull(rb)) return a.IsNull(ra) && b.IsNull(rb);
  if (a.type() == nexus::DataType::kFloat64 ||
      b.type() == nexus::DataType::kFloat64) {
    double x = a.NumericAt(ra), y = b.NumericAt(rb);
    return std::fabs(x - y) <= kFloatTolerance * std::max(1.0, std::fabs(y));
  }
  return a.GetValue(ra) == b.GetValue(rb);
}

// Row order of `t` sorted on its int64 columns (the keys and coordinates
// every tolerant template carries).
std::vector<int64_t> KeyOrder(const nexus::Table& t,
                              const std::vector<int>& key_cols) {
  std::vector<int64_t> order(static_cast<size_t>(t.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    for (int c : key_cols) {
      int64_t a = t.column(c).ints()[static_cast<size_t>(x)];
      int64_t b = t.column(c).ints()[static_cast<size_t>(y)];
      if (a != b) return a < b;
    }
    return false;
  });
  return order;
}

}  // namespace

bool Matches(const Dataset& got, const Template& t) {
  auto table = got.AsTable();
  if (!table.ok() || !t.expected) return false;
  const nexus::Table& g = *table.ValueOrDie();
  const nexus::Table& e = *t.expected;
  if (!t.tolerant) return g.Equals(e);
  if (g.num_rows() != e.num_rows() || g.num_columns() != e.num_columns()) {
    return false;
  }
  // Columns pair up by name: engines may tag dimensions differently.
  std::vector<int> g_of_e;
  std::vector<int> e_keys, g_keys;
  for (int c = 0; c < e.num_columns(); ++c) {
    int gc = g.schema()->FindField(e.schema()->field(c).name);
    if (gc < 0) return false;
    g_of_e.push_back(gc);
    if (e.column(c).type() == nexus::DataType::kInt64 && !e.column(c).has_nulls()) {
      if (g.column(gc).type() != nexus::DataType::kInt64 ||
          g.column(gc).has_nulls()) {
        return false;
      }
      e_keys.push_back(c);
      g_keys.push_back(gc);
    }
  }
  std::vector<int64_t> eo = KeyOrder(e, e_keys), go = KeyOrder(g, g_keys);
  for (size_t r = 0; r < eo.size(); ++r) {
    for (int c = 0; c < e.num_columns(); ++c) {
      if (!CellsClose(g.column(g_of_e[static_cast<size_t>(c)]), go[r],
                      e.column(c), eo[r])) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Tally / Workload::Read.
// ---------------------------------------------------------------------------

void Tally::Add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name].push_back(v);
}

std::vector<double> Tally::Values(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

namespace {
std::atomic<int> g_reported_mismatches{0};
}  // namespace

Sample Workload::Read(nexus::service::Server& server, int64_t session,
                      const Template& t, nexus::service::QueryOptions options,
                      const std::function<bool(const Dataset&)>& check) {
  Sample s;
  s.family = t.name;
  nexus::WallTimer timer;
  PlanPtr plan = t.plan;
  nexus::Status status = nexus::Status::OK();
  if (!t.bdl.empty()) {
    nexus::WallTimer parse_timer;
    auto parsed = nexus::ParseBdl(t.bdl);
    s.parse_ms = parse_timer.ElapsedMillis();
    tally_.Add("frontend.parse_ms", s.parse_ms);
    if (parsed.ok()) {
      plan = parsed.ValueOrDie();
    } else {
      status = parsed.status();
    }
  }
  nexus::service::QueryReport report;
  auto result = [&]() -> nexus::Result<Dataset> {
    NEXUS_RETURN_NOT_OK(status);
    telemetry::SpanGuard span(telemetry::kCategoryService, kExecuteSpan);
    return server.Execute(session, plan, options, &report);
  }();
  s.latency_ms = timer.ElapsedMillis();
  tally_.Add("service.queue_wait_ms", report.queue_wait_ms);
  s.ok = result.ok() && (check ? check(result.ValueOrDie())
                               : Matches(result.ValueOrDie(), t));
  if (!s.ok && g_reported_mismatches.fetch_add(1) < 5) {
    std::fprintf(stderr, "template %s: %s\n", t.name.c_str(),
                 result.ok() ? "result does not match the reference"
                             : result.status().ToString().c_str());
  }
  return s;
}

void Workload::WarmUp(nexus::service::Server& server, int64_t session,
                      const std::vector<Template>& templates) {
  warmup_failures_ = 0;
  for (const Template& t : templates) {
    if (!Read(server, session, t).ok) ++warmup_failures_;
  }
}

nexus::service::ServerOptions BaseServerOptions(bool trace) {
  nexus::service::ServerOptions options;
  if (trace) options.coordinator.thread_count = 1;
  return options;
}

void ComputeExpected(const std::vector<std::pair<std::string, Dataset>>& tables,
                     std::vector<Template>* templates) {
  nexus::ProviderPtr ref = nexus::MakeReferenceProvider();
  for (const auto& [name, data] : tables) {
    NEXUS_CHECK(ref->catalog()->Put(name, data).ok());
  }
  for (Template& t : *templates) {
    if (!t.bdl.empty()) {
      auto parsed = nexus::ParseBdl(t.bdl);
      NEXUS_CHECK(parsed.ok()) << t.bdl << ": " << parsed.status().ToString();
      t.plan = parsed.ValueOrDie();
    }
    auto result = ref->Execute(*t.plan);
    NEXUS_CHECK(result.ok()) << t.name << ": " << result.status().ToString();
    t.expected = result.ValueOrDie().AsTable().ValueOrDie();
  }
}

// ---------------------------------------------------------------------------
// The closed-loop driver.
// ---------------------------------------------------------------------------

namespace {

// Parks client threads between operations so the driver can fold spans and
// flip tracing while no operation is in flight.
class Gate {
 public:
  explicit Gate(int active) : active_(active) {}

  void Checkpoint() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!pause_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !pause_; });
    --parked_;
  }

  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    cv_.notify_all();
  }

  bool Done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_ == 0;
  }

  template <typename F>
  void Quiesce(F&& f) {
    std::unique_lock<std::mutex> lock(mu_);
    pause_ = true;
    cv_.wait(lock, [&] { return parked_ == active_; });
    f();
    pause_ = false;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool pause_ = false;
  int active_ = 0;
  int parked_ = 0;
};

struct LoopResult {
  std::vector<Sample> samples;  // in start order
  double wall_s = 0.0;
  SpanFold fold;
};

LoopResult RunLoop(Workload& w, const Args& args) {
  const int n = w.clients();
  int64_t total_cap = 0;
  for (int c = 0; c < n; ++c) total_cap += w.ops_cap(c);
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(n));
  std::atomic<int64_t> done{0};
  std::mutex traced_mu;
  std::mutex progress_mu;
  std::condition_variable progress_cv;
  Gate gate(n);
  LoopResult out;
  nexus::WallTimer timer;

  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      for (int64_t i = 0; i < w.ops_cap(c); ++i) {
        gate.Checkpoint();
        // A client that may not send yet sleeps until another operation
        // completes. The timeout lets it park at the gate while the others
        // are parked there (no operation then completes to wake it).
        while (!w.Ready(c, i) && timer.ElapsedSeconds() < args.seconds) {
          {
            std::unique_lock<std::mutex> lock(progress_mu);
            progress_cv.wait_for(lock, std::chrono::milliseconds(1),
                                 [&] { return w.Ready(c, i); });
          }
          gate.Checkpoint();
        }
        double start = timer.ElapsedSeconds();
        if (start >= args.seconds) break;
        bool traced = telemetry::Enabled();
        // While tracing, operations run one at a time: the tracer reads the
        // transport's clock under its span lock while the transport records
        // message spans under its own lock, and two threads taking them in
        // opposite order deadlock.
        std::unique_lock<std::mutex> serial(traced_mu, std::defer_lock);
        if (traced) serial.lock();
        Sample s = w.Step(c, i);
        if (traced) serial.unlock();
        s.start_s = start;
        s.traced = traced;
        per_client[static_cast<size_t>(c)].push_back(s);
        done.fetch_add(1);
        { std::lock_guard<std::mutex> lock(progress_mu); }  // no lost wake-up
        progress_cv.notify_all();
      }
      gate.Exit();
    });
  }

  auto take_spans = [&] {
    out.fold.Add(telemetry::Spans());
    telemetry::ClearSpans();
  };
  int phase = 0;
  double last_fold = 0.0;
  while (!gate.Done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!args.trace) continue;
    double now = timer.ElapsedSeconds();
    double progress = std::max(static_cast<double>(done.load()) /
                                   static_cast<double>(total_cap),
                               now / args.seconds);
    int want = std::min(3, static_cast<int>(progress * 4.0));
    if (want != phase) {
      gate.Quiesce([&] {
        if (telemetry::Enabled()) take_spans();
        phase = want;
        telemetry::SetEnabled(phase % 2 == 1);
      });
      last_fold = now;
    } else if (telemetry::Enabled() && now - last_fold > 0.25) {
      gate.Quiesce(take_spans);
      last_fold = now;
    }
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = timer.ElapsedSeconds();
  if (telemetry::Enabled()) {
    take_spans();
    telemetry::SetEnabled(false);
  }
  for (auto& v : per_client) {
    out.samples.insert(out.samples.end(), v.begin(), v.end());
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const Sample& a, const Sample& b) { return a.start_s < b.start_s; });
  return out;
}

// Whole-run counters of the transport, the metrics registry and the pool.
struct Counters {
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t client_bytes = 0;
  double sim_s = 0.0;
  int64_t morsels = 0;
  int64_t rejected = 0;
  int64_t killed = 0;
  std::map<std::string, int64_t> reg;

  static Counters Take(Workload& w) {
    Counters c;
    const nexus::Transport& t = *w.cluster().transport();
    c.messages = t.total_messages();
    c.bytes = t.total_bytes();
    c.client_bytes = t.bytes_through(nexus::kClientNode);
    c.sim_s = t.simulated_seconds();
    c.morsels = nexus::GetParallelStats().morsels;
    c.rejected = w.server().admission().rejected();
    c.killed = w.server().governor().kills();
    c.reg = telemetry::MetricsRegistry::Global().CounterValues();
    return c;
  }
  int64_t Reg(const std::string& name) const {
    auto it = reg.find(name);
    return it == reg.end() ? 0 : it->second;
  }
};

// Resets this process's resident-set high-water mark (VmHWM; Linux 4.0 and
// later). False when the kernel refuses, and VmHWM then covers the whole
// process.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// VmHWM of this process in MB (0 when /proc is unavailable).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Median of the last tenth of `lat` over the median of its first tenth.
double Drift(const std::vector<double>& lat) {
  size_t tenth = lat.size() / 10;
  if (tenth == 0) return 0.0;
  std::vector<double> first(lat.begin(), lat.begin() + static_cast<long>(tenth));
  std::vector<double> last(lat.end() - static_cast<long>(tenth), lat.end());
  return Ratio(Quantile(last, 0.5), Quantile(first, 0.5));
}

// Read latencies (in start order) per template family.
using Families = std::map<std::string, std::vector<double>>;

// Geometric mean over families of f(family latencies). Every family weighs
// the same however fast it is or how often it runs, so a change to any one
// family moves the figure; a one-family run reports f itself. (A quantile
// of the pooled reads would sit inside one family's latency band and ignore
// the others.)
template <typename F>
double AcrossFamilies(const Families& families, F&& f) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [family, lat] : families) {
    double v = f(lat);
    if (!(v > 0.0)) continue;
    log_sum += std::log(v);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

// The per-layer metrics a traced run prints, in order, with their units.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"service.self_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.rejected", "count"},
    {"service.killed", "count"},
    {"federation.coord_self_ms", "ms"},
    {"federation.place_ms", "ms"},
    {"federation.fragments_per_query", "count"},
    {"federation.messages_per_query", "count"},
    {"federation.retries_per_query", "count"},
    {"federation.plan_cache_hit_ratio", "ratio"},
    {"federation.client_bytes_per_query", "bytes"},
    {"federation.latency_drift", "ratio"},
    {"transport.log_records", "count"},
    {"optimizer.optimize_ms", "ms"},
    {"optimizer.root_q_error", "ratio"},
    {"core.encode_mb_s", "MB/s"},
    {"core.decode_mb_s", "MB/s"},
    {"core.plan_parse_ms", "ms"},
    {"core.append_ms", "ms"},
    {"provider.execute_wire_self_ms", "ms"},
    {"relational.kernel_ms", "ms"},
    {"relational.rows_in_per_row_out", "ratio"},
    {"expr.cache_hit_ratio", "ratio"},
    {"parallel.morsels_per_query", "count"},
    {"algebra.kernel_ms", "ms"},
    {"algebra.entries_per_query", "count"},
    {"graph.kernel_ms", "ms"},
    {"graph.iterations", "count"},
    {"linalg.kernel_ms", "ms"},
    {"linalg.dense_gflops", "GFLOP/s"},
    {"arraydb.kernel_ms", "ms"},
    {"incremental.refresh_ms", "ms"},
    {"incremental.fallback_ratio", "ratio"},
    {"incremental.state_bytes", "bytes"},
    {"frontend.parse_ms", "ms"},
    {"telemetry.overhead_pct", "%"},
    {"telemetry.spans_per_query", "count"},
    {"write_p50_ms", "ms"},
    {"error_rate", "ratio"},
    {"share.service", "ratio"},
    {"share.federation", "ratio"},
    {"share.provider", "ratio"},
    {"share.frontend", "ratio"},
    {"share.relational", "ratio"},
    {"share.algebra", "ratio"},
    {"share.graph", "ratio"},
    {"share.linalg", "ratio"},
    {"share.arraydb", "ratio"},
    {"share.reference", "ratio"},
    {"share.other", "ratio"},
    {"share.remainder", "ratio"},
};

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int RunBenchmark(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "olap_star") w = MakeOlapStar();
  if (args.workload == "graph_linalg") w = MakeGraphLinalg();
  if (args.workload == "tenant_mix") w = MakeTenantMix();
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  nexus::SetThreadCount(w->pool_threads());
  w->set_trace(args.trace);
  w->Generate(args.seed);

  // At least seven set-ups spread over at least two seconds, so a quick
  // set-up's median is not taken from one short stretch of the host's time.
  std::vector<double> setup_s;
  nexus::WallTimer setup_timer;
  while (setup_s.size() < 7 ||
         (setup_timer.ElapsedSeconds() < 2.0 && setup_s.size() < 41)) {
    nexus::WallTimer t;
    w->Setup();
    setup_s.push_back(t.ElapsedSeconds());
  }
  // peak_rss_mb covers the measured phase only: memory freed by Generate
  // (with its reference results) and the earlier set-ups goes back to the
  // system, and the high-water mark restarts from the live system.
  malloc_trim(0);
  const bool rss_reset = ResetPeakRss();

  Counters before = Counters::Take(*w);
  LoopResult run = RunLoop(*w, args);
  Counters after = Counters::Take(*w);

  std::vector<double> write_lat;
  Families read_lat, untraced_lat, traced_lat;
  int64_t failed = 0, read_count = 0;
  double traced_parse_ms = 0.0, traced_read_ms = 0.0;
  for (const Sample& s : run.samples) {
    if (!s.ok) ++failed;
    if (s.write) {
      write_lat.push_back(s.latency_ms);
      continue;
    }
    ++read_count;
    read_lat[s.family].push_back(s.latency_ms);
    (s.traced ? traced_lat : untraced_lat)[s.family].push_back(s.latency_ms);
    if (s.traced) {
      traced_parse_ms += s.parse_ms;
      traced_read_ms += s.latency_ms;
    }
  }
  const int64_t attempted = static_cast<int64_t>(run.samples.size());
  const double reads = static_cast<double>(read_count);
  const bool correct = attempted > 0 && failed == 0 && w->warmup_failures() == 0;
  auto p50 = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  auto p90 = [](const std::vector<double>& v) { return Quantile(v, 0.9); };
  // The traced run compares untraced quarters only, so tracing cost does
  // not read as drift.
  const double drift = AcrossFamilies(args.trace ? untraced_lat : read_lat, Drift);
  const int64_t log_records = after.messages;

  std::printf("# env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "pool_threads=%d client_threads=%d build=%s compiler=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), nexus::GetThreadCount(),
              w->clients(), NEXBENCH_BUILD_TYPE, NEXBENCH_COMPILER);
  std::printf("# samples: attempted=%lld reads=%lld writes=%zu failed=%lld "
              "warmup_failed=%lld wall_s=%.3f setup_reps=%zu\n",
              static_cast<long long>(attempted), static_cast<long long>(read_count),
              write_lat.size(), static_cast<long long>(failed),
              static_cast<long long>(w->warmup_failures()), run.wall_s,
              setup_s.size());
  if (!rss_reset) {
    std::printf("# warning: could not reset VmHWM; peak_rss_mb covers the whole "
                "process\n");
  }
  for (const auto& [family, lat] : read_lat) {
    std::printf("# family %-10s n=%-5zu p50=%.3f ms p90=%.3f ms drift=%.3f\n",
                family.c_str(), lat.size(), p50(lat), p90(lat), Drift(lat));
    if (lat.size() < 100) {
      std::printf("# warning: family %s has fewer than 100 reads; its p90 has "
                  "<10 samples beyond it\n",
                  family.c_str());
    }
  }

  // Every end-to-end metric is printed with its sample count. The JSON
  // carries those whose run-to-run spread stays inside a regression bound
  // (see NOTES.md): query_p50_ms and throughput_qps track how much of a run
  // the shared host spends in its slow state, and write_p50_ms (tenant_mix
  // only) and error_rate can read 0, which the JSON metrics must not.
  const int64_t writes = static_cast<int64_t>(write_lat.size());
  const Metric query_p50 = {"query_p50_ms", AcrossFamilies(read_lat, p50), "ms"};
  const Metric query_p90 = {"query_p90_ms", AcrossFamilies(read_lat, p90), "ms"};
  const Metric throughput = {
      "throughput_qps", Ratio(static_cast<double>(attempted - failed), run.wall_s),
      "1/s"};
  const Metric write_p50 = {"write_p50_ms", Quantile(write_lat, 0.5), "ms"};
  const Metric sim_net = {"sim_net_ms_per_query",
                          Ratio((after.sim_s - before.sim_s) * 1e3, reads), "ms"};
  const Metric wire_bytes = {
      "wire_bytes_per_query",
      Ratio(static_cast<double>(after.bytes - before.bytes), reads), "bytes"};
  const Metric error_rate = {
      "error_rate", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "ratio"};
  const Metric setup = {"setup_s", Quantile(setup_s, 0.5), "s"};
  const Metric peak_rss = {"peak_rss_mb", PeakRssMb(), "MB"};
  const std::pair<const Metric*, int64_t> printed[] = {
      {&query_p50, read_count}, {&query_p90, read_count}, {&throughput, attempted},
      {&write_p50, writes},     {&sim_net, read_count},   {&wire_bytes, read_count},
      {&error_rate, attempted}, {&setup, static_cast<int64_t>(setup_s.size())},
      {&peak_rss, 1},
  };
  for (const auto& [m, n] : printed) {
    std::printf("%-34s %14.4f %-6s (n=%lld)\n", m->name.c_str(), m->value,
                m->unit.c_str(), static_cast<long long>(n));
  }
  const std::vector<Metric> e2e = {query_p90, sim_net, wire_bytes, setup, peak_rss};
  std::printf("%-34s %14.4f\n", "federation.latency_drift", drift);
  std::printf("%-34s %14lld\n", "transport.log_records",
              static_cast<long long>(log_records));

  if (!args.trace) {
    PrintJson(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // ----- Per-layer metrics of the traced run. ------------------------------
  const SpanFold& f = run.fold;
  const double tq = static_cast<double>(std::max<int64_t>(1, f.reads()));
  auto layer = [&](const char* name) {
    auto it = f.layer_ms().find(name);
    return it == f.layer_ms().end() ? 0.0 : it->second;
  };
  auto delta = [&](const char* name) {
    return static_cast<double>(after.Reg(name) - before.Reg(name));
  };
  std::map<std::string, double> v;
  v["service.self_ms"] = layer("service") / tq;
  v["service.queue_wait_ms"] = Quantile(w->tally().Values("service.queue_wait_ms"), 0.5);
  v["service.rejected"] = static_cast<double>(after.rejected - before.rejected);
  v["service.killed"] = static_cast<double>(after.killed - before.killed);
  v["federation.coord_self_ms"] = layer("federation") / tq;
  v["federation.place_ms"] = f.place_ms() / tq;
  v["federation.fragments_per_query"] = Ratio(delta("coordinator.fragments"), reads);
  v["federation.messages_per_query"] =
      Ratio(static_cast<double>(after.messages - before.messages), reads);
  v["federation.retries_per_query"] = Ratio(delta("coordinator.retries"), reads);
  v["federation.plan_cache_hit_ratio"] =
      Ratio(delta("provider.plan_cache_hit"),
            delta("provider.plan_cache_hit") + delta("provider.plan_cache_miss"));
  v["federation.client_bytes_per_query"] =
      Ratio(static_cast<double>(after.client_bytes - before.client_bytes), reads);
  v["federation.latency_drift"] = drift;
  v["transport.log_records"] = static_cast<double>(log_records);
  v["provider.execute_wire_self_ms"] = layer("provider") / tq;
  v["relational.kernel_ms"] = f.kernel_ms("rel.") / tq;
  v["relational.rows_in_per_row_out"] =
      Ratio(static_cast<double>(f.rel_rows_in()), static_cast<double>(f.rel_rows_out()));
  v["expr.cache_hit_ratio"] =
      Ratio(delta("expr.compile_cache_hit"),
            delta("expr.compile_cache_hit") + delta("expr.compile"));
  v["parallel.morsels_per_query"] =
      Ratio(static_cast<double>(after.morsels - before.morsels), reads);
  v["algebra.kernel_ms"] = f.kernel_ms("alg.") / tq;
  v["algebra.entries_per_query"] = static_cast<double>(f.alg_entries()) / tq;
  v["graph.kernel_ms"] = f.kernel_ms("graph.") / tq;
  v["linalg.kernel_ms"] = f.kernel_ms("la.") / tq;
  v["arraydb.kernel_ms"] = f.kernel_ms("ad.") / tq;
  std::vector<double> parse = w->tally().Values("frontend.parse_ms");
  v["frontend.parse_ms"] =
      parse.empty() ? 0.0 : std::accumulate(parse.begin(), parse.end(), 0.0) /
                                static_cast<double>(parse.size());
  v["telemetry.overhead_pct"] =
      (Ratio(AcrossFamilies(traced_lat, p50), AcrossFamilies(untraced_lat, p50)) - 1.0) *
      100.0;
  v["telemetry.spans_per_query"] = static_cast<double>(f.spans()) / tq;
  v["write_p50_ms"] = write_p50.value;
  v["error_rate"] = error_rate.value;

  // Shares of traced read latency: each layer's self time, BDL parsing on
  // the client, and what no span accounts for (client glue, checks that
  // run outside spans, sibling fragments that overlap push it negative).
  double accounted = 0.0;
  for (const char* l : {"service", "federation", "provider", "relational", "algebra",
                        "graph", "linalg", "arraydb", "reference", "other"}) {
    v[std::string("share.") + l] = Ratio(layer(l), traced_read_ms);
    accounted += layer(l);
  }
  v["share.frontend"] = Ratio(traced_parse_ms, traced_read_ms);
  accounted += traced_parse_ms;
  v["share.remainder"] = Ratio(traced_read_ms - accounted, traced_read_ms);

  std::vector<Metric> probes;
  ProbeTemplates(*w, &probes);
  w->LayerFigures(&probes);
  for (const Metric& m : probes) v[m.name] = m.value;

  std::vector<Metric> layers;
  for (const auto& [name, unit] : kLayerMetrics) {
    layers.push_back({name, v.count(name) ? v[name] : 0.0, unit});
  }
  for (const Metric& m : layers) {
    std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace nexbench
