// E6 — Control iteration: "many areas, such as graph analytics and data
// mining, require repeated execution of an expression until some
// convergence criterion is met."
//
// Method: PageRank-to-convergence expressed as an Iterate over base algebra
// (the PageRank expansion), executed two ways on the same cluster:
//   provider-side  the whole Iterate ships once; the loop runs at the server;
//   client-driven  the coordinator drives the loop, re-shipping the body
//                  (with the current state inlined) every iteration.
// Sweep the graph size; report iterations, round trips, bytes through the
// client, and simulated network time.
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "common/random.h"
#include "core/expansion.h"
#include "federation/coordinator.h"

using namespace nexus;  // NOLINT

int main() {
  std::printf("E6 Control iteration: PageRank fixpoint, provider-side vs\n");
  std::printf("client-driven loop (same Iterate plan)\n\n");
  std::printf("%7s %6s | %5s %10s %8s | %5s %10s %8s | %7s\n", "nodes",
              "iters", "msgs", "thru-cli", "sim(ms)", "msgs", "thru-cli",
              "sim(ms)", "time");
  std::printf("%7s %6s | %26s | %26s | %7s\n", "", "",
              "----- provider-side -----", "----- client-driven -----", "ratio");

  benchjson::Recorder json("iteration");
  struct CacheRow {
    int64_t nodes;
    int64_t cached_plan_bytes, nocache_plan_bytes, hits;
    double cached_sim, nocache_sim;
  };
  std::vector<CacheRow> cache_rows;
  for (int64_t nodes : {50, 100, 200, 400}) {
    Cluster cluster;
    NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
    Rng rng(static_cast<uint64_t>(nodes) * 13);
    SchemaPtr es = Schema::Make({Field::Attr("src", DataType::kInt64),
                                 Field::Attr("dst", DataType::kInt64)})
                       .ValueOrDie();
    TableBuilder eb(es);
    for (int64_t e = 0; e < nodes * 4; ++e) {
      NEXUS_CHECK(eb.AppendRow({Value::Int64(rng.NextInt(0, nodes - 1)),
                                Value::Int64(rng.NextInt(0, nodes - 1))})
                      .ok());
    }
    NEXUS_CHECK(
        cluster.PutData("relstore", "edges", Dataset(eb.Finish().ValueOrDie()))
            .ok());

    PageRankOp pr;
    pr.max_iters = 30;
    pr.epsilon = 1e-6;
    FederatedCatalog fed(&cluster);
    SchemaPtr edge_schema = fed.GetSchema("edges").ValueOrDie();
    PlanPtr loop = ExpandPageRank(Plan::Scan("edges"), pr, *edge_schema).ValueOrDie();

    CoordinatorOptions server_side;
    server_side.provider_side_iteration = true;
    Coordinator sc(&cluster, server_side);
    ExecutionMetrics sm;
    Dataset r1 = sc.Execute(loop, &sm).ValueOrDie();

    CoordinatorOptions client_side;
    client_side.provider_side_iteration = false;
    Coordinator cc(&cluster, client_side);
    ExecutionMetrics cm;
    Dataset r2 = cc.Execute(loop, &cm).ValueOrDie();

    // E13 ablation: the same client-driven loop without the plan cache —
    // every round re-ships the full body instead of a fingerprint + changed
    // loop-variable bindings.
    CoordinatorOptions no_cache = client_side;
    no_cache.plan_cache = false;
    Coordinator nc(&cluster, no_cache);
    ExecutionMetrics nm;
    Dataset r3 = nc.Execute(loop, &nm).ValueOrDie();

    // Ranks agree within float tolerance.
    TablePtr t1 = r1.AsTable().ValueOrDie();
    TablePtr t2 = r2.AsTable().ValueOrDie();
    TablePtr t3 = r3.AsTable().ValueOrDie();
    NEXUS_CHECK(t1->num_rows() == t2->num_rows());
    NEXUS_CHECK(t2->num_rows() == t3->num_rows());
    const QueryProfile& sp = sm.profile;
    const QueryProfile& cp = cm.profile;
    const QueryProfile& np = nm.profile;
    json.Record("provider_side_sim", nodes, sp.simulated_seconds() * 1e3);
    json.AnnotateOptimizer(sm.optimizer);
    json.RecordWire("client_driven_sim", nodes, cp.simulated_seconds() * 1e3,
                    cp);
    json.AnnotateOptimizer(cm.optimizer);
    json.RecordWire("client_nocache_sim", nodes, np.simulated_seconds() * 1e3,
                    np);
    json.AnnotateOptimizer(nm.optimizer);
    cache_rows.push_back({nodes, cp[QueryStat::kPlanBytes],
                          np[QueryStat::kPlanBytes],
                          cp[QueryStat::kPlanCacheHits],
                          cp.simulated_seconds(), np.simulated_seconds()});

    std::printf("%7lld %6lld | %5lld %10s %8.2f | %5lld %10s %8.2f | %6.2fx\n",
                static_cast<long long>(nodes),
                static_cast<long long>(cp[QueryStat::kClientLoopIterations]),
                static_cast<long long>(sp[QueryStat::kMessages]),
                FormatBytes(static_cast<uint64_t>(sp[QueryStat::kClientBytes]))
                    .c_str(),
                sp.simulated_seconds() * 1e3,
                static_cast<long long>(cp[QueryStat::kMessages]),
                FormatBytes(static_cast<uint64_t>(cp[QueryStat::kClientBytes]))
                    .c_str(),
                cp.simulated_seconds() * 1e3,
                cp.simulated_seconds() / sp.simulated_seconds());
  }
  std::printf("\nshape expectation: provider-side iteration is 2 messages total;\n");
  std::printf("the client-driven loop pays >=4 messages per iteration (body plan,\n");
  std::printf("state down, measure plan, delta back) plus state bytes both ways,\n");
  std::printf("so the gap scales with iterations x state size.\n");

  std::printf("\nE13 Plan-fingerprint cache on the client-driven loop\n\n");
  std::printf("%7s | %10s %8s | %10s %8s | %5s | %7s\n", "nodes", "plan-B",
              "sim(ms)", "plan-B", "sim(ms)", "hits", "time");
  std::printf("%7s | %19s | %19s | %5s | %7s\n", "", "----- cached ------",
              "---- no cache -----", "", "ratio");
  for (const auto& r : cache_rows) {
    std::printf("%7lld | %10s %8.2f | %10s %8.2f | %5lld | %6.2fx\n",
                static_cast<long long>(r.nodes),
                FormatBytes(static_cast<uint64_t>(r.cached_plan_bytes)).c_str(),
                r.cached_sim * 1e3,
                FormatBytes(static_cast<uint64_t>(r.nocache_plan_bytes)).c_str(),
                r.nocache_sim * 1e3, static_cast<long long>(r.hits),
                r.nocache_sim / r.cached_sim);
  }
  std::printf("\nshape expectation: the cached loop ships the body once and then\n");
  std::printf("only fingerprint references + changed loop-variable bindings, so\n");
  std::printf("plan bytes stop scaling with iterations and simulated time drops.\n");
  return 0;
}
