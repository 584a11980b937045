// E9 — Model fusion: "a fusion of tabular and array models, with 0 or more
// attributes in a table structure being tagged as dimensions, and operators
// being dimension-aware."
//
// Two measurements, swept over cell density:
//   (a) rebox round trip — table -> chunked array -> table; the conversion
//       cost is the price of moving between representations, and the round
//       trip must be lossless. Each columnar conversion runs beside the
//       frozen per-cell loop it replaced (rebox_percell.h), and on the full
//       65.5k-cell grid so do the NXB1 encode/decode of the array, which
//       rebox on every wire crossing;
//   (b) dimension-aware advantage — the same cell-wise combine of two
//       grids executed as a dimension-aware ElemWise on the chunked array
//       engine vs as a generic equi-join + arithmetic on the relational
//       engine.
#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/serialize.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "rebox_percell.h"
#include "types/ndarray.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

TablePtr SparseGrid(Rng* rng, int64_t n, double density, const char* attr) {
  SchemaPtr s = Schema::Make({Field::Dim("i"), Field::Dim("j"),
                              Field::Attr(attr, DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (!rng->NextBool(density)) continue;
      NEXUS_CHECK(b.AppendRow({Value::Int64(i), Value::Int64(j),
                               Value::Float64(rng->NextDouble(0, 1))})
                      .ok());
    }
  }
  return b.Finish().ValueOrDie();
}

/// Median wall time of `reps` runs of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    ms.push_back(t.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main() {
  const int64_t n = 256;
  std::printf("E9 Model fusion: rebox round trip and dimension-aware ops\n");
  std::printf("grid %lld x %lld, chunk 32\n\n", static_cast<long long>(n),
              static_cast<long long>(n));
  std::printf("(a) table <-> array round trip, columnar vs frozen per-cell "
              "(median of 9, ms)\n");
  std::printf("%8s %9s  %9s %9s  %9s %9s  %9s\n", "density", "cells", "to-array",
              "per-cell", "to-table", "per-cell", "lossless");

  benchjson::Recorder json("rebox");
  constexpr int kReps = 9;
  const std::vector<std::string> dims = {"i", "j"};
  const std::vector<int64_t> chunks = {32, 32};
  NDArrayPtr full;  // the density-1.0 grid, for the wire arms
  for (double density : {0.05, 0.25, 0.5, 1.0}) {
    Rng rng(static_cast<uint64_t>(density * 1000));
    TablePtr t = SparseGrid(&rng, n, density, "v");
    NDArrayPtr arr, arr_percell;
    TablePtr back, back_percell;
    double to_array = MedianMs(kReps, [&] {
      arr = NDArray::FromTable(*t, dims, chunks).ValueOrDie();
    });
    double to_array_percell = MedianMs(kReps, [&] {
      arr_percell = percell::FromTable(*t, dims, chunks).ValueOrDie();
    });
    double to_table = MedianMs(kReps, [&] { back = arr->ToTable().ValueOrDie(); });
    double to_table_percell =
        MedianMs(kReps, [&] { back_percell = percell::ToTable(*arr).ValueOrDie(); });
    bool lossless = Dataset(t).LogicallyEquals(Dataset(back)) &&
                    arr->Equals(*arr_percell) && back->Equals(*back_percell);
    const long long cells = t->num_rows();
    json.Record("to_array", cells, to_array);
    json.Record("to_array_percell", cells, to_array_percell);
    json.Record("to_table", cells, to_table);
    json.Record("to_table_percell", cells, to_table_percell);
    json.Record("lossless", lossless ? 1 : 0, 0.0);
    std::printf("%8.2f %9lld  %9.2f %9.2f  %9.2f %9.2f  %9s\n", density, cells,
                to_array, to_array_percell, to_table, to_table_percell,
                lossless ? "yes" : "NO");
    if (density == 1.0) full = arr;
  }

  // The array crossing the wire: encode = ToTable + NXB1 columns, decode =
  // NXB1 columns + FromTable. The per-cell arms swap in the frozen loops
  // around the same column codec.
  const Dataset wire_ds(full);
  std::string wire, wire_percell;
  double encode = MedianMs(kReps, [&] {
    wire = SerializeDatasetWire(wire_ds, WireFormat::kBinary);
  });
  double encode_percell = MedianMs(kReps, [&] {
    wire_percell = SerializeDatasetWire(Dataset(percell::ToTable(*full).ValueOrDie()),
                                        WireFormat::kBinary);
  });
  Dataset decoded, decoded_percell;
  double decode = MedianMs(kReps, [&] { decoded = ParseDatasetWire(wire).ValueOrDie(); });
  double decode_percell = MedianMs(kReps, [&] {
    TablePtr flat = ParseDatasetWire(wire_percell).ValueOrDie().table();
    decoded_percell = Dataset(NDArrayPtr(percell::FromTable(*flat, dims, chunks).ValueOrDie()));
  });
  bool wire_lossless = decoded.array()->Equals(*full) &&
                       decoded_percell.array()->Equals(*full);
  const long long cells = full->NumCellsOccupied();
  json.Record("encode", cells, encode);
  json.Record("encode_percell", cells, encode_percell);
  json.Record("decode", cells, decode);
  json.Record("decode_percell", cells, decode_percell);
  json.Record("lossless", wire_lossless ? 1 : 0, 0.0);
  std::printf("\nNXB1 array wire, %lld cells: encode %.2f ms (per-cell %.2f), "
              "decode %.2f ms (per-cell %.2f), lossless %s\n",
              cells, encode, encode_percell, decode, decode_percell,
              wire_lossless ? "yes" : "NO");

  std::printf("\n(b) cell-wise combine: dimension-aware (arraydb) vs generic\n");
  std::printf("    join (relstore), same algebra node\n");
  std::printf("%8s %9s  %12s  %14s  %9s\n", "density", "cells", "arraydb(ms)",
              "relstore(ms)", "ratio");

  for (double density : {0.05, 0.25, 0.5, 1.0}) {
    Rng rng(static_cast<uint64_t>(density * 977) + 5);
    TablePtr a = SparseGrid(&rng, n, density, "v");
    TablePtr b = SparseGrid(&rng, n, density, "w");

    PlanPtr combine = Plan::ElemWise(Plan::Scan("GA"), Plan::Scan("GB"),
                                     BinaryOp::kMul);
    auto run_on = [&](const char* provider_name, ProviderPtr provider) {
      Cluster cluster;
      NEXUS_CHECK(cluster.AddServer(provider_name, std::move(provider)).ok());
      NEXUS_CHECK(cluster.AddServer("reference", MakeReferenceProvider()).ok());
      // Each engine stores its native representation: chunked arrays on the
      // array server, columnar tables on the relational server.
      Dataset da(a), db(b);
      if (std::string(provider_name) == "arraydb") {
        da = Dataset(Dataset(a).AsArray(32).ValueOrDie());
        db = Dataset(Dataset(b).AsArray(32).ValueOrDie());
      }
      NEXUS_CHECK(cluster.PutData(provider_name, "GA", std::move(da)).ok());
      NEXUS_CHECK(cluster.PutData(provider_name, "GB", std::move(db)).ok());
      Coordinator coord(&cluster);
      NEXUS_CHECK(coord.Execute(combine).ok());  // warm-up
      ExecutionMetrics m;
      WallTimer t;
      Dataset r = coord.Execute(combine, &m).ValueOrDie();
      return std::make_tuple(t.ElapsedMillis(), r, m.optimizer);
    };
    auto [array_ms, r1, opt1] = run_on("arraydb", MakeArrayProvider());
    auto [rel_ms, r2, opt2] = run_on("relstore", MakeRelationalProvider());
    NEXUS_CHECK(r1.LogicallyEquals(r2));
    json.Record("elemwise_arraydb", a->num_rows(), array_ms);
    json.AnnotateOptimizer(opt1);
    json.Record("elemwise_relstore", a->num_rows(), rel_ms);
    json.AnnotateOptimizer(opt2);
    std::printf("%8.2f %9lld  %12.2f  %14.2f  %8.2fx\n", density,
                static_cast<long long>(a->num_rows()), array_ms, rel_ms,
                rel_ms / array_ms);
  }
  std::printf("\nshape expectation: the round trip is lossless at every density\n");
  std::printf("and scales with occupied cells, each columnar arm several times\n");
  std::printf("faster than its per-cell arm; the dimension-aware engine wins\n");
  std::printf("at high density (dense chunk layout beats hashing), while the\n");
  std::printf("generic join narrows the gap as the grid sparsifies.\n");
  return 0;
}
