// E5 — Expression-tree shipping (LINQ property): "it can pass queries to
// Providers in the form of an expression tree, rather than as a series of
// remote function calls. This capability obviously cuts down on
// communication between client and Provider."
//
// Method: a five-operator pipeline (select → extend → aggregate → sort →
// limit) over a table of R rows, executed two ways on the same cluster:
//   tree    one serialized expression tree; only the final result returns;
//   per-op  one remote call per operator, every intermediate routed back to
//           the client and re-uploaded (the client-library pattern).
// Sweep R; report round trips, total bytes, bytes through the client, and
// simulated network time.
// E13 — Binary columnar wire format: the same federated fetch executed once
// on a cluster whose servers are all marked text-only (every link negotiates
// the legacy text wire) and once with NXB1 negotiation (the default), on an event-log workload whose columns are representative of
// machine data (frame-of-reference timestamps, dictionary hosts/messages,
// run-length-encodable severity levels). A repeat execution on the binary
// arm measures the provider plan-fingerprint cache, and a repeat run of a
// two-server join (the host dimension lives on the second server) shows
// that fragments scanning a shipped temp hit that cache too.
#include <cstdio>
#include <memory>

#include "bench_json.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "common/random.h"
#include "expr/builder.h"
#include "federation/coordinator.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

// Event-log table: the column mix real log pipelines ship — monotone
// timestamps (FOR), low-cardinality strings (dict), near-constant severity
// (RLE), and a small-range integer count.
std::unique_ptr<Cluster> MakeLogCluster(int64_t rows) {
  auto cluster = std::make_unique<Cluster>();
  NEXUS_CHECK(cluster->AddServer("relstore", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster->AddServer("reference", MakeReferenceProvider()).ok());
  Rng rng(static_cast<uint64_t>(rows) * 31);
  SchemaPtr s = Schema::Make({Field::Attr("ts", DataType::kInt64),
                              Field::Attr("host", DataType::kString),
                              Field::Attr("level", DataType::kInt64),
                              Field::Attr("msg", DataType::kString),
                              Field::Attr("count", DataType::kInt64)})
                    .ValueOrDie();
  static const char* kMsgs[] = {"request served", "cache refill",
                                "slow query", "connection reset"};
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    NEXUS_CHECK(
        b.AppendRow(
             {Value::Int64(1700000000000 + i * 250 + rng.NextInt(0, 40)),
              Value::String("host-" + std::to_string(rng.NextInt(0, 7))),
              Value::Int64(i % 97 == 0 ? 2 : 0),
              Value::String(kMsgs[rng.NextInt(0, 3)]),
              Value::Int64(rng.NextInt(0, 99))})
            .ok());
  }
  NEXUS_CHECK(
      cluster->PutData("relstore", "logs", Dataset(b.Finish().ValueOrDie()))
          .ok());
  SchemaPtr hs = Schema::Make({Field::Attr("name", DataType::kString),
                               Field::Attr("rack", DataType::kInt64)})
                     .ValueOrDie();
  TableBuilder hb(hs);
  for (int64_t h = 0; h < 8; ++h) {
    NEXUS_CHECK(hb.AppendRow({Value::String("host-" + std::to_string(h)),
                              Value::Int64(h / 2)})
                    .ok());
  }
  NEXUS_CHECK(
      cluster->PutData("reference", "hosts", Dataset(hb.Finish().ValueOrDie()))
          .ok());
  return cluster;
}

/// One byte count of a call's profile, human-readable.
std::string Bytes(const QueryProfile& p, QueryStat stat) {
  return FormatBytes(static_cast<uint64_t>(p[stat]));
}

}  // namespace

int main() {
  std::printf("E5 Expression shipping vs per-operator remote calls\n\n");
  std::printf("%9s | %5s %10s %10s %8s | %5s %10s %10s %8s | %7s\n", "rows",
              "msgs", "bytes", "thru-cli", "sim(ms)", "msgs", "bytes",
              "thru-cli", "sim(ms)", "time");
  std::printf("%9s | %37s | %37s | %7s\n", "",
              "----------- tree ------------", "---------- per-op -----------",
              "ratio");

  benchjson::Recorder json("shipping");
  for (int64_t rows : {1000, 10000, 50000, 200000}) {
    Cluster cluster;
    NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
    Rng rng(static_cast<uint64_t>(rows));
    SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                                Field::Attr("v", DataType::kFloat64)})
                      .ValueOrDie();
    TableBuilder b(s);
    for (int64_t i = 0; i < rows; ++i) {
      NEXUS_CHECK(b.AppendRow({Value::Int64(rng.NextInt(0, 99)),
                               Value::Float64(rng.NextDouble(0, 100))})
                      .ok());
    }
    NEXUS_CHECK(
        cluster.PutData("relstore", "events", Dataset(b.Finish().ValueOrDie()))
            .ok());

    PlanPtr p = Plan::Scan("events");
    p = Plan::Select(p, Gt(Col("v"), Lit(25.0)));
    p = Plan::Extend(p, {{"w", Mul(Col("v"), Col("v"))}});
    p = Plan::Aggregate(p, {"k"}, {AggSpec{AggFunc::kSum, Col("w"), "sw"}});
    p = Plan::Sort(p, {{"sw", false}});
    p = Plan::Limit(p, 10, 0);

    CoordinatorOptions opts;
    opts.optimize = false;  // identical operator counts in both arms
    Coordinator coord(&cluster, opts);
    ExecutionMetrics tree, perop;
    Dataset r1 = coord.Execute(p, &tree).ValueOrDie();
    Dataset r2 = coord.ExecutePerOp(p, &perop).ValueOrDie();
    NEXUS_CHECK(r1.LogicallyEquals(r2));
    const QueryProfile& tp = tree.profile;
    const QueryProfile& pp = perop.profile;
    json.RecordFederated("tree_sim", rows, tp.simulated_seconds() * 1e3, tp);
    json.AnnotateOptimizer(tree.optimizer);
    json.RecordFederated("perop_sim", rows, pp.simulated_seconds() * 1e3, pp);
    json.AnnotateOptimizer(perop.optimizer);

    std::printf(
        "%9lld | %5lld %10s %10s %8.2f | %5lld %10s %10s %8.2f | %6.2fx\n",
        static_cast<long long>(rows),
        static_cast<long long>(tp[QueryStat::kMessages]),
        Bytes(tp, QueryStat::kBytes).c_str(),
        Bytes(tp, QueryStat::kClientBytes).c_str(),
        tp.simulated_seconds() * 1e3,
        static_cast<long long>(pp[QueryStat::kMessages]),
        Bytes(pp, QueryStat::kBytes).c_str(),
        Bytes(pp, QueryStat::kClientBytes).c_str(),
        pp.simulated_seconds() * 1e3,
        pp.simulated_seconds() / tp.simulated_seconds());
  }
  std::printf("\nshape expectation: tree mode sends 2 messages regardless of data\n");
  std::printf("size; per-op round trips scale with pipeline length and its bytes\n");
  std::printf("with intermediate sizes, so the gap grows with the input.\n");

  std::printf("\nE13 Text vs NXB1 binary wire on a federated event-log fetch\n\n");
  std::printf("%9s | %10s %10s %6s | %10s %6s %5s | %9s\n", "rows", "text",
              "binary", "ratio", "repeat", "saved", "hits", "join hits");
  std::printf("%9s | %29s | %24s | %9s\n", "",
              "----- bytes on wire ------", "-- binary, 2nd run --",
              "of frags");
  for (int64_t rows : {2000, 10000, 50000}) {
    // The query ships a filter and fetches nearly the whole table back: the
    // wire bytes are dominated by the dataset encoding, which is the thing
    // under test.
    PlanPtr q = Plan::Select(Plan::Scan("logs"), Gt(Col("count"), Lit(-1)));

    // Text arm: a fresh cluster whose servers are all text-only peers.
    std::unique_ptr<Cluster> text_cluster = MakeLogCluster(rows);
    for (const std::string& s : text_cluster->ServerNames()) {
      text_cluster->transport()->SetNodeBinaryCapable(s, false);
    }
    Coordinator text_coord(text_cluster.get());
    ExecutionMetrics text_m;
    Dataset text_d = text_coord.Execute(q, &text_m).ValueOrDie();

    // Binary arm: identical fresh cluster, default NXB1 negotiation. The
    // second execution re-uses the provider's cached plan fingerprint.
    std::unique_ptr<Cluster> bin_cluster = MakeLogCluster(rows);
    Coordinator bin_coord(bin_cluster.get());
    ExecutionMetrics bin_m, rep_m;
    Dataset bin_d = bin_coord.Execute(q, &bin_m).ValueOrDie();
    Dataset rep_d = bin_coord.Execute(q, &rep_m).ValueOrDie();
    NEXUS_CHECK(bin_d.LogicallyEquals(text_d));
    NEXUS_CHECK(rep_d.LogicallyEquals(text_d));
    // The join runs across both servers: the host scan's temp moves to
    // relstore, and the join fragment there scans it by name.
    PlanPtr join = Plan::Join(q, Plan::Scan("hosts"), JoinType::kInner,
                              {"host"}, {"name"});
    ExecutionMetrics join_m;
    Dataset join_d1 = bin_coord.Execute(join).ValueOrDie();
    Dataset join_d2 = bin_coord.Execute(join, &join_m).ValueOrDie();
    NEXUS_CHECK(join_d1.LogicallyEquals(join_d2));
    NEXUS_CHECK(join_m.profile[QueryStat::kFragments] > 1);

    const QueryProfile& tp = text_m.profile;
    const QueryProfile& bp = bin_m.profile;
    const QueryProfile& rp = rep_m.profile;
    json.RecordWire("e13_text", rows, tp.simulated_seconds() * 1e3, tp);
    json.AnnotateOptimizer(text_m.optimizer);
    json.RecordWire("e13_binary", rows, bp.simulated_seconds() * 1e3, bp);
    json.AnnotateOptimizer(bin_m.optimizer);
    json.RecordWire("e13_binary_repeat", rows, rp.simulated_seconds() * 1e3,
                    rp);
    json.AnnotateOptimizer(rep_m.optimizer);
    const QueryProfile& jp = join_m.profile;
    json.RecordWire("e13_join_repeat", rows, jp.simulated_seconds() * 1e3,
                    jp);
    json.AnnotateOptimizer(join_m.optimizer);

    std::printf("%9lld | %10s %10s %5.1fx | %10s %6s %5lld | %5lld/%lld\n",
                static_cast<long long>(rows),
                Bytes(tp, QueryStat::kBytes).c_str(),
                Bytes(bp, QueryStat::kBytes).c_str(),
                static_cast<double>(tp[QueryStat::kBytes]) /
                    static_cast<double>(bp[QueryStat::kBytes]),
                Bytes(rp, QueryStat::kBytes).c_str(),
                Bytes(rp, QueryStat::kWireBytesSaved).c_str(),
                static_cast<long long>(rp[QueryStat::kPlanCacheHits]),
                static_cast<long long>(jp[QueryStat::kPlanCacheHits]),
                static_cast<long long>(jp[QueryStat::kFragments]));
  }
  std::printf("\nshape expectation: the binary arm moves >=5x fewer bytes (FOR\n");
  std::printf("timestamps, dict strings, RLE levels); the repeat run replaces the\n");
  std::printf("shipped plan with a fixed-size fingerprint reference (hits > 0);\n");
  std::printf("on the join's repeat run every fragment hits (hits = frags).\n");
  return 0;
}
