// Matrix federation: the paper's SciDB ⇄ ScaLAPACK scenario. Two matrices
// live on an array server; a matrix product must run on the linear-algebra
// server. The coordinator plans the transfer either directly between the
// two servers (desideratum 4) or relayed through the client — run both and
// compare the traffic.
//
//   ./build/examples/matrix_federation
#include <cmath>
#include <iostream>

#include "common/logging.h"

#include "common/random.h"
#include "federation/coordinator.h"
#include "frontend/query.h"

using namespace nexus;  // NOLINT

namespace {

TablePtr RandomMatrix(Rng* rng, int64_t rows, int64_t cols, const char* rname,
                      const char* cname, const char* attr) {
  SchemaPtr s = Schema::Make({Field::Dim(rname), Field::Dim(cname),
                              Field::Attr(attr, DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      NEXUS_CHECK(b.AppendRow({Value::Int64(r), Value::Int64(c),
                               Value::Float64(rng->NextDouble(-1, 1))})
                      .ok());
    }
  }
  return b.Finish().ValueOrDie();
}

}  // namespace

int main() {
  Rng rng(99);
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("arraydb", MakeArrayProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("linalg", MakeLinalgProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
  NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());

  const int64_t n = 64;
  NEXUS_CHECK(cluster
                  .PutData("arraydb", "A",
                           Dataset(RandomMatrix(&rng, n, n, "i", "k", "a")))
                  .ok());
  NEXUS_CHECK(cluster
                  .PutData("arraydb", "B",
                           Dataset(RandomMatrix(&rng, n, n, "k", "j", "b")))
                  .ok());

  // C = slice(A) x B, written once. The slice runs where A lives (the array
  // engine prunes chunks); the product runs on the linear-algebra server.
  Query q = Query::From("A")
                .Slice({{"i", 0, n / 2}})
                .MatMul(Query::From("B"), "c");

  Coordinator coord(&cluster);
  std::cout << "Placement:\n"
            << coord.ExplainPlacement(q.plan()).ValueOrDie() << "\n";

  auto run = [&](TransferMode mode, const char* label) {
    CoordinatorOptions opts;
    opts.transfer_mode = mode;
    ExecutionMetrics m;
    Dataset result =
        Coordinator(&cluster, opts).Execute(q.plan(), &m).ValueOrDie();
    std::cout << label << ":\n  " << m.ToString() << "\n";
    return result;
  };
  Dataset direct = run(TransferMode::kDirect, "direct (server -> server)");
  Dataset relayed = run(TransferMode::kRelay, "relayed (through client tier)");
  std::cout << "results agree: "
            << (direct.LogicallyEquals(relayed) ? "yes" : "no") << "\n";
  std::cout << "\nIn direct mode the A-slice and B never touch the client: "
               "only the final\nproduct is delivered to the application, as "
               "desideratum 4 asks.\n";
  return 0;
}
