// graph_linalg: one session running the engines' semi-ring workloads, the
// pool at nproc.
//   pagerank  PageRank on graphd over a seeded 2048-node edge table
//   spgemm    a sparse MatMul intent over relstore tables, run on linalg
//             (SpGEMM)
//   dense     a dense MatMul of arraydb arrays, run on linalg (MatMulBlocked)
// The algebra kernels, graph and linalg do most of the work; relational and
// expressions sit idle.
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "harness.h"
#include "linalg/dense.h"
#include "provider/provider.h"

namespace nexbench {

using namespace nexus;  // NOLINT

namespace {

constexpr int64_t kNodes = 2048;
constexpr int64_t kEdgesPerNode = 8;
constexpr int64_t kPageRankIters = 20;
constexpr int64_t kSparseN = 384;
constexpr double kSparseDensity = 0.02;
constexpr int64_t kDenseN = 192;
constexpr int kVariants = 3;
// Operation mix per cycle: every family equally often.
const char* const kCycle[] = {"pagerank", "spgemm", "dense"};
// Fixed operation count (see harness.h): 100 per family, so each family's
// p90 has ten samples beyond it.
constexpr int64_t kOps = 300;

// A 2-d matrix as a table: two dimension columns and one float64 attribute.
TablePtr Matrix(const char* row, const char* col, const char* attr,
                const std::vector<int64_t>& r, const std::vector<int64_t>& c,
                const std::vector<double>& v) {
  SchemaPtr s = Schema::Make({Field::Dim(row), Field::Dim(col),
                              Field::Attr(attr, DataType::kFloat64)})
                    .ValueOrDie();
  return Table::Make(s, {Column::FromInt64(r), Column::FromInt64(c),
                         Column::FromFloat64(v)})
      .ValueOrDie();
}

TablePtr RandomMatrix(Rng* rng, int64_t n, double density, const char* row,
                      const char* col, const char* attr) {
  std::vector<int64_t> r, c;
  std::vector<double> v;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (density < 1.0 && !rng->NextBool(density)) continue;
      r.push_back(i);
      c.push_back(j);
      v.push_back(rng->NextDouble(-1, 1));
    }
  }
  return Matrix(row, col, attr, r, c, v);
}

class GraphLinalg : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed);
    std::vector<int64_t> src, dst;
    for (int64_t u = 0; u < kNodes; ++u) {
      for (int64_t e = 0; e < kEdgesPerNode; ++e) {
        src.push_back(u);
        dst.push_back(rng.NextInt(0, kNodes - 1));
      }
    }
    SchemaPtr es = Schema::Make({Field::Attr("src", DataType::kInt64),
                                 Field::Attr("dst", DataType::kInt64)})
                       .ValueOrDie();
    edges_ = Table::Make(es, {Column::FromInt64(src), Column::FromInt64(dst)})
                 .ValueOrDie();
    sa_ = RandomMatrix(&rng, kSparseN, kSparseDensity, "i", "k", "a");
    sb_ = RandomMatrix(&rng, kSparseN, kSparseDensity, "k", "j", "b");
    da_ = RandomMatrix(&rng, kDenseN, 1.0, "i", "k", "a");
    db_ = RandomMatrix(&rng, kDenseN, 1.0, "k", "j", "b");

    for (int v = 0; v < kVariants; ++v) {
      int64_t damping_pct = rng.NextInt(75, 95);
      // Fixed-width row windows, so every seed runs the same amount of work.
      int64_t s0 = rng.NextInt(0, kSparseN / 4);
      int64_t d0 = rng.NextInt(0, kDenseN / 4);
      Add("pagerank", StrCat("from edges | pagerank src dst damping 0.", damping_pct,
                             " iters ", kPageRankIters, " eps 0"));
      Add("spgemm", StrCat("from SA | where i >= ", s0, " and i < ",
                           s0 + kSparseN * 3 / 4, " | matmul SB as c"));
      Add("dense", StrCat("from DA | slice i ", d0, " ", d0 + kDenseN * 3 / 4,
                          " | matmul DB as c"));
    }
    ComputeExpected({{"edges", Dataset(edges_)},
                     {"SA", Dataset(sa_)},
                     {"SB", Dataset(sb_)},
                     {"DA", Dataset(da_)},
                     {"DB", Dataset(db_)}},
                    &templates_);
  }

  void Setup() override {
    server_.reset();
    cluster_ = std::make_unique<Cluster>();
    NEXUS_CHECK(cluster_->AddServer("graphd", MakeGraphProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("arraydb", MakeArrayProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("linalg", MakeLinalgProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("reference", MakeReferenceProvider()).ok());
    NEXUS_CHECK(cluster_->PutData("graphd", "edges", Dataset(edges_)).ok());
    NEXUS_CHECK(cluster_->PutData("relstore", "SA", Dataset(sa_)).ok());
    NEXUS_CHECK(cluster_->PutData("relstore", "SB", Dataset(sb_)).ok());
    NEXUS_CHECK(cluster_->PutData("arraydb", "DA",
                                  Dataset(Dataset(da_).AsArray(64).ValueOrDie()))
                    .ok());
    NEXUS_CHECK(cluster_->PutData("arraydb", "DB",
                                  Dataset(Dataset(db_).AsArray(64).ValueOrDie()))
                    .ok());
    server_ =
        std::make_unique<service::Server>(cluster_.get(), BaseServerOptions(trace_));
    NEXUS_CHECK(server_->RegisterTenant("scientist", {}).ok());
    session_ = server_->OpenSession("scientist").ValueOrDie();
    WarmUp(*server_, session_, templates_);
  }

  int clients() const override { return 1; }
  int64_t ops_cap(int) const override { return kOps; }
  int pool_threads() const override { return HardwareThreads(); }

  Sample Step(int c, int64_t i) override {
    return Read(*server_, session_,
                PickVariant(templates_, kCycle[i % std::size(kCycle)], seed_, c, i));
  }

  Cluster& cluster() override { return *cluster_; }
  service::Server& server() override { return *server_; }
  const std::vector<Template>& templates() const override { return templates_; }

  void LayerFigures(std::vector<Metric>* out) override {
    // The benchmark's own calls into the graph and dense kernels, on the
    // same inputs the queries use.
    graph::CsrGraph g = graph::CsrGraph::FromTable(*edges_, "src", "dst").ValueOrDie();
    graph::PageRankOptions opts;
    opts.max_iters = kPageRankIters;
    opts.epsilon = 0.0;
    out->push_back({"graph.iterations",
                    static_cast<double>(graph::PageRank(g, opts).iterations), "count"});
    int64_t rs = 0, cs = 0;
    linalg::DenseMatrix a =
        linalg::FromNDArray(*Dataset(da_).AsArray(64).ValueOrDie(), &rs, &cs)
            .ValueOrDie();
    linalg::DenseMatrix b =
        linalg::FromNDArray(*Dataset(db_).AsArray(64).ValueOrDie(), &rs, &cs)
            .ValueOrDie();
    std::vector<double> secs;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer t;
      NEXUS_CHECK(linalg::MatMulBlocked(a, b).ok());
      secs.push_back(t.ElapsedSeconds());
    }
    double flops = 2.0 * static_cast<double>(kDenseN * kDenseN * kDenseN);
    out->push_back({"linalg.dense_gflops", flops / Quantile(secs, 0.5) / 1e9,
                    "GFLOP/s"});
  }

 private:
  void Add(const std::string& family, std::string bdl) {
    Template t;
    t.name = family;
    t.bdl = std::move(bdl);
    t.tolerant = true;  // every family sums floats in engine order
    templates_.push_back(std::move(t));
  }

  uint64_t seed_ = 0;
  TablePtr edges_, sa_, sb_, da_, db_;
  std::vector<Template> templates_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<service::Server> server_;
  int64_t session_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeGraphLinalg() { return std::make_unique<GraphLinalg>(); }

}  // namespace nexbench
