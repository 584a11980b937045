// E4 — Server Interoperation (desideratum 4): "an algebra query that spans
// servers should be realizable as a plan where intermediate results pass
// directly between servers, rather than being routed through the
// application or a middle tier."
//
// Method: C = A x B with A, B stored on the array server and the product
// executed on the linear-algebra server. The coordinator moves both inputs
// across the server boundary either directly or relayed through the client.
// Sweep the matrix size; report bytes through the client, message counts,
// and simulated network time (1 ms latency, 1 Gbit/s links).
#include <cstdio>

#include "bench_json.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "common/random.h"
#include "federation/coordinator.h"

using namespace nexus;  // NOLINT

namespace {

TablePtr RandomMatrix(Rng* rng, int64_t n, const char* d0, const char* d1,
                      const char* attr) {
  SchemaPtr s = Schema::Make({Field::Dim(d0), Field::Dim(d1),
                              Field::Attr(attr, DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      NEXUS_CHECK(b.AppendRow({Value::Int64(r), Value::Int64(c),
                               Value::Float64(rng->NextDouble(0.1, 1.0))})
                      .ok());
    }
  }
  return b.Finish().ValueOrDie();
}

}  // namespace

int main() {
  std::printf("E4 Server interoperation: arraydb -> linalg matrix pipeline\n");
  std::printf("direct = intermediates server->server; relay = through client\n\n");
  std::printf("%6s  %12s | %10s %9s %9s | %10s %9s %9s | %7s\n", "n",
              "intermediate", "thru-cli", "msgs", "sim(ms)", "thru-cli",
              "msgs", "sim(ms)", "ratio");
  std::printf("%6s  %12s | %30s | %30s | %7s\n", "", "", "---------- direct ---------",
              "---------- relay ----------", "bytes");

  benchjson::Recorder json("interop");
  for (int64_t n : {16, 32, 64, 128}) {
    Cluster cluster;
    NEXUS_CHECK(cluster.AddServer("arraydb", MakeArrayProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("linalg", MakeLinalgProvider()).ok());
    NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
    Rng rng(static_cast<uint64_t>(n) + 17);
    NEXUS_CHECK(cluster
                    .PutData("arraydb", "A",
                             Dataset(RandomMatrix(&rng, n, "i", "k", "a")))
                    .ok());
    NEXUS_CHECK(cluster
                    .PutData("arraydb", "B",
                             Dataset(RandomMatrix(&rng, n, "k", "j", "b")))
                    .ok());
    PlanPtr mm = Plan::MatMul(Plan::Scan("A"), Plan::Scan("B"), "c");

    CoordinatorOptions direct;
    direct.transfer_mode = TransferMode::kDirect;
    Coordinator dc(&cluster, direct);
    ExecutionMetrics dm;
    Dataset r1 = dc.Execute(mm, &dm).ValueOrDie();

    CoordinatorOptions relay;
    relay.transfer_mode = TransferMode::kRelay;
    Coordinator rc(&cluster, relay);
    ExecutionMetrics rm;
    Dataset r2 = rc.Execute(mm, &rm).ValueOrDie();

    NEXUS_CHECK(r1.LogicallyEquals(r2));
    json.Record("direct_sim", n * n, dm.profile.simulated_seconds() * 1e3);
    json.AnnotateOptimizer(dm.optimizer);
    json.Record("relay_sim", n * n, rm.profile.simulated_seconds() * 1e3);
    json.AnnotateOptimizer(rm.optimizer);
    const QueryProfile& dp = dm.profile;
    const QueryProfile& rp = rm.profile;
    int64_t intermediate = dp[QueryStat::kDataBytes] - r1.ByteSize();
    double ratio = dp[QueryStat::kClientBytes] > 0
                       ? static_cast<double>(rp[QueryStat::kClientBytes]) /
                             static_cast<double>(dp[QueryStat::kClientBytes])
                       : 0.0;
    std::printf("%6lld  %12s | %10s %9lld %9.2f | %10s %9lld %9.2f | %6.2fx\n",
                static_cast<long long>(n),
                FormatBytes(static_cast<uint64_t>(intermediate)).c_str(),
                FormatBytes(static_cast<uint64_t>(dp[QueryStat::kClientBytes]))
                    .c_str(),
                static_cast<long long>(dp[QueryStat::kMessages]),
                dp.simulated_seconds() * 1e3,
                FormatBytes(static_cast<uint64_t>(rp[QueryStat::kClientBytes]))
                    .c_str(),
                static_cast<long long>(rp[QueryStat::kMessages]),
                rp.simulated_seconds() * 1e3, ratio);
  }
  std::printf("\nshape expectation: through-client bytes stay ~flat (result only)\n");
  std::printf("under direct transfer but grow with the inputs under relay; the\n");
  std::printf("gap widens with n.\n");
  return 0;
}
