// The benchmark harness: argument parsing, the closed-loop client driver,
// output checks, and metric reporting shared by every workload.
//
// One process runs one workload from one seed:
//   1. Generate: inputs from the seed, and every template's expected result
//      from the reference provider (untimed — this is the benchmark's own
//      work, not the system's).
//   2. Set up at least seven times and for at least two seconds (cluster,
//      data load, server, one warm-up pass over every template); the median
//      is `setup_s`. The last system is kept.
//   3. Measure: each client thread sends its next operation only after the
//      previous reply (closed loop) until it has sent its fixed share of
//      operations or the time budget runs out. A fixed count keeps a faster
//      program from being charged for running more operations, since the
//      transport log — and with it memory and per-query cost — grows with
//      every operation a process runs.
//   4. Report: human-readable lines, then one JSON object as the last line.
//      A latency figure is taken per template family and combined across
//      families by geometric mean, so every family weighs the same.
//
// With --trace 1 the run alternates untraced and traced quarters (toggled
// only while every client is parked between operations), folds and clears
// the recorded spans as it goes, and reports per-layer metrics instead.
#ifndef NEXBENCH_HARNESS_H_
#define NEXBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan.h"
#include "federation/cluster.h"
#include "service/server.h"
#include "types/dataset.h"

namespace nexbench {

using nexus::Dataset;
using nexus::PlanPtr;
using nexus::TablePtr;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses --workload/--seed/--seconds/--trace; false (with a message on
/// stderr) on anything else.
bool ParseArgs(int argc, char** argv, Args* args);

/// Float tolerance for results whose engine sums in another order than the
/// reference executor (PageRank, sparse and dense products): cells must
/// agree within kFloatTolerance * max(1, |expected|) after both sides are
/// sorted on their int64 columns. The same bound the provider tests use.
inline constexpr double kFloatTolerance = 1e-8;

/// One query template instance with its expected result.
struct Template {
  std::string name;      ///< template family, e.g. "agg" (shared by variants)
  PlanPtr plan;          ///< the plan (parsed from `bdl` when that is set)
  std::string bdl;       ///< when set, clients submit this text instead
  TablePtr expected;     ///< reference-provider result
  bool tolerant = false; ///< compare within kFloatTolerance, not Equals
};

/// True when `got` matches the template's expected result.
bool Matches(const Dataset& got, const Template& t);

/// The result of one closed-loop operation.
struct Sample {
  std::string family;       ///< template family, or "write"
  double start_s = 0.0;     ///< seconds since the measured phase began
  double latency_ms = 0.0;  ///< client-observed
  double parse_ms = 0.0;    ///< BDL parse time inside latency_ms
  bool write = false;
  bool ok = false;          ///< executed and matched its expected result
  bool traced = false;
};

/// Thread-safe named sample lists for figures measured inside the loop
/// (append time, refresh time, ...).
class Tally {
 public:
  void Add(const std::string& name, double v);
  std::vector<double> Values(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> values_;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload exposes to the harness.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and expected results from the seed (untimed).
  virtual void Generate(uint64_t seed) = 0;
  /// Builds a fresh system and runs one warm-up pass over every template.
  /// Any previous system is destroyed first.
  virtual void Setup() = 0;

  virtual int clients() const = 0;
  /// Operations client `c` sends in the measured phase (its fixed share).
  virtual int64_t ops_cap(int c) const = 0;
  /// Process-wide engine pool size during the run.
  virtual int pool_threads() const = 0;
  /// Whether client `c` may send its operation `i` now. A client that may
  /// not is polled again (it never blocks inside Step, so the driver can
  /// still park every client between operations).
  virtual bool Ready(int c, int64_t i) const {
    (void)c;
    (void)i;
    return true;
  }
  /// Sends client `c`'s operation number `i` and checks its result.
  virtual Sample Step(int c, int64_t i) = 0;

  virtual nexus::Cluster& cluster() = 0;
  virtual nexus::service::Server& server() = 0;
  /// Every distinct template, for the traced run's outside-call probes.
  virtual const std::vector<Template>& templates() const = 0;
  /// Workload-specific per-layer figures measured after the loop.
  virtual void LayerFigures(std::vector<Metric>* out) { (void)out; }

  Tally& tally() { return tally_; }
  /// Warm-up operations of the last Setup() that failed or mismatched.
  int64_t warmup_failures() const { return warmup_failures_; }
  /// Set before Setup(): whether this is a traced run.
  void set_trace(bool trace) { trace_ = trace; }

 protected:
  /// One checked pass over `templates` (fills the expression program cache
  /// and the provider plan caches before timing begins).
  void WarmUp(nexus::service::Server& server, int64_t session,
              const std::vector<Template>& templates);

  /// Runs `t` through `server` for `session` as one closed-loop read:
  /// parses BDL text when the template has it, executes under a
  /// "bench.execute" span, and checks the result — with `check` when given,
  /// else against t.expected.
  Sample Read(nexus::service::Server& server, int64_t session,
              const Template& t, nexus::service::QueryOptions options = {},
              const std::function<bool(const Dataset&)>& check = {});

  Tally tally_;
  int64_t warmup_failures_ = 0;
  bool trace_ = false;
};

/// The server options a workload starts from. Untraced runs keep the
/// defaults (concurrent sibling-fragment dispatch). Traced runs dispatch
/// sibling fragments one at a time (engine kernels still use the whole
/// pool): with tracing on, concurrent dispatch deadlocks the tracer (see
/// RunLoop).
nexus::service::ServerOptions BaseServerOptions(bool trace);

/// Fills every template's plan (parsing its BDL text) and its expected
/// result, by executing it on a reference provider that holds `tables`.
void ComputeExpected(const std::vector<std::pair<std::string, Dataset>>& tables,
                     std::vector<Template>* templates);

std::unique_ptr<Workload> MakeOlapStar();
std::unique_ptr<Workload> MakeGraphLinalg();
std::unique_ptr<Workload> MakeTenantMix();

/// Runs the whole benchmark for `args`; returns the process exit code.
int RunBenchmark(const Args& args);

/// Hash of (seed, a, b): per-operation choices depend only on the seed, the
/// client and the operation's index, never on timing.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b);

/// The variant of `family` that client `c` sends as its operation `i`.
const Template& PickVariant(const std::vector<Template>& templates,
                            const std::string& family, uint64_t seed, int c,
                            int64_t i);

/// A table of int64 attribute columns.
TablePtr IntTable(std::vector<std::string> names,
                  std::vector<std::vector<int64_t>> cols);

/// Quantile by linear interpolation between closest ranks (0 when empty).
double Quantile(std::vector<double> v, double q);

}  // namespace nexbench

#endif  // NEXBENCH_HARNESS_H_
