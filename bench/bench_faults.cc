// E10 — Fault tolerance: query completion and overhead under an unreliable
// network. Real federations lose messages and drop servers; the paper's
// "intermediates pass directly between servers" plan shape only survives
// production if the coordinator can retry, time out, and replan around
// failures.
//
// Method: a three-server cluster (relstore + a replica holder + reference)
// runs a mixed workload — a relational pipeline and a cross-server join —
// while the transport drops each message with probability p. Sweep p; each
// cell runs Q queries and reports the completion rate, retries, failovers,
// wasted (lost) bytes, and the simulated-time overhead versus p = 0. One
// extra row scripts a server-down window to exercise failover replanning.
#include <cstdio>

#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "federation/coordinator.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

struct CellResult {
  int completed = 0;
  int attempted = 0;
  int64_t retries = 0;
  int64_t failovers = 0;
  int64_t timeouts = 0;
  int64_t fragments = 0;
  int64_t messages = 0;
  int64_t wasted_bytes = 0;
  double sim_seconds = 0.0;
  OptimizerStats opt;
};

void LoadData(Cluster* cluster) {
  Rng rng(99);
  SchemaPtr events = Schema::Make({Field::Attr("k", DataType::kInt64),
                                   Field::Attr("v", DataType::kFloat64)})
                         .ValueOrDie();
  TableBuilder eb(events);
  for (int64_t i = 0; i < 20000; ++i) {
    NEXUS_CHECK(eb.AppendRow({Value::Int64(rng.NextInt(0, 99)),
                              Value::Float64(rng.NextDouble(0, 100))})
                    .ok());
  }
  NEXUS_CHECK(
      cluster->PutData("relstore", "events", Dataset(eb.Finish().ValueOrDie()))
          .ok());
  SchemaPtr dims = Schema::Make({Field::Attr("id", DataType::kInt64),
                                 Field::Attr("w", DataType::kFloat64)})
                       .ValueOrDie();
  TableBuilder db(dims);
  for (int64_t i = 0; i < 100; ++i) {
    NEXUS_CHECK(
        db.AppendRow({Value::Int64(i), Value::Float64(rng.NextDouble(0, 1))})
            .ok());
  }
  NEXUS_CHECK(
      cluster->PutData("relsmall", "dims", Dataset(db.Finish().ValueOrDie()))
          .ok());
  // Replicas: the redundancy failover replanning routes through.
  NEXUS_CHECK(cluster->Replicate("events", "reference").ok());
  NEXUS_CHECK(cluster->Replicate("dims", "reference").ok());
}

CellResult RunCell(double drop_probability, bool with_down_window,
                   int queries) {
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("relsmall", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
  LoadData(&cluster);

  FaultOptions f;
  f.enabled = drop_probability > 0.0 || with_down_window;
  f.drop_probability = drop_probability;
  f.seed = 7;
  if (with_down_window) {
    f.down_windows = {{"relstore", 0.0, 0.5}};
  }
  cluster.transport()->SetFaultOptions(f);

  CoordinatorOptions opts;
  opts.retry.max_attempts = 6;
  opts.retry.fragment_timeout_seconds = 2.0;
  Coordinator coord(&cluster, opts);

  PlanPtr pipeline = Plan::Scan("events");
  pipeline = Plan::Select(pipeline, Gt(Col("v"), Lit(25.0)));
  pipeline = Plan::Extend(pipeline, {{"w2", Mul(Col("v"), Col("v"))}});
  pipeline = Plan::Aggregate(pipeline, {"k"},
                             {AggSpec{AggFunc::kSum, Col("w2"), "s"}});
  PlanPtr join = Plan::Join(Plan::Scan("dims"), Plan::Scan("events"),
                            JoinType::kInner, {"id"}, {"k"});

  CellResult cell;
  for (int q = 0; q < queries; ++q) {
    const PlanPtr& p = (q % 2 == 0) ? pipeline : join;
    ExecutionMetrics m;
    ++cell.attempted;
    if (coord.Execute(p, &m).ok()) ++cell.completed;
    cell.retries += m.profile[QueryStat::kRetries];
    cell.failovers += m.profile[QueryStat::kFailovers];
    cell.timeouts += m.profile[QueryStat::kTimeouts];
    cell.fragments += m.profile[QueryStat::kFragments];
    cell.messages += m.profile[QueryStat::kMessages];
    cell.opt = m.optimizer;
  }
  cell.wasted_bytes = cluster.transport()->failed_bytes();
  cell.sim_seconds = cluster.transport()->simulated_seconds();
  return cell;
}

}  // namespace

int main() {
  std::printf(
      "E10 Fault tolerance: drop probability vs completion and cost\n\n");
  const int kQueries = 20;
  benchjson::Recorder json("faults");
  CellResult base = RunCell(0.0, /*with_down_window=*/false, kQueries);
  std::printf("%9s | %9s %8s %9s %8s | %10s %9s %9s\n", "drop p", "completed",
              "retries", "failovers", "timeouts", "wasted", "sim(ms)",
              "overhead");
  auto report = [&](const char* label, const CellResult& c) {
    json.RecordFederated(std::string("drop_") + label + "_sim", c.attempted,
                         c.sim_seconds * 1e3, c.fragments, c.messages,
                         c.retries);
    json.AnnotateOptimizer(c.opt);
    std::printf("%9s | %6d/%2d %8lld %9lld %8lld | %10s %9.2f %8.2fx\n", label,
                c.completed, c.attempted, static_cast<long long>(c.retries),
                static_cast<long long>(c.failovers),
                static_cast<long long>(c.timeouts),
                FormatBytes(static_cast<uint64_t>(c.wasted_bytes)).c_str(),
                c.sim_seconds * 1e3, c.sim_seconds / base.sim_seconds);
  };
  report("0", base);
  for (double p : {0.01, 0.05, 0.10, 0.20}) {
    CellResult c = RunCell(p, /*with_down_window=*/false, kQueries);
    char label[16];
    std::snprintf(label, sizeof(label), "%.2f", p);
    report(label, c);
  }
  CellResult down = RunCell(0.05, /*with_down_window=*/true, kQueries);
  report("0.05+down", down);

  std::printf(
      "\nshape expectation: completion stays at 100%% well past p = 0.05 (the\n"
      "retry ladder absorbs isolated drops); wasted bytes and simulated time\n"
      "grow with p; the down-window row adds failovers — queries replan onto\n"
      "the replica holder instead of waiting out the outage.\n");
  return 0;
}
