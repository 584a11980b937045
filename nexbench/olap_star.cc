// olap_star: one analyst session over a star schema, the pool at nproc.
//
// A 2^20-row fact table `sales` lives on relstore, a 10k-row dimension
// `customers` on a second relational server (dimstore), and a small skewed
// table `promos` beside the fact. Four seeded template families:
//   agg   filter → extend → grouped aggregate (the fused bytecode path)
//   star  fact ⋈ dim, aggregated by LowerAggregate; the dimension ships
//         dimstore → relstore
//   skew  fact ⋈ dim ⋈ promos, written in the bad order (DP reorder fixes it)
//   topk  filter → sort → limit 100
// Relational kernels, expressions, the optimizer and the morsel pool do
// most of the work; the wire carries little (the dimension and small
// results).
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "harness.h"
#include "provider/provider.h"

namespace nexbench {

using namespace nexus;  // NOLINT

namespace {

constexpr int64_t kFactRows = int64_t{1} << 20;
constexpr int64_t kCustomers = 10000;
constexpr int64_t kPromos = 200;
constexpr int kVariants = 3;
// Operation mix per cycle: every family equally often.
const char* const kCycle[] = {"agg", "star", "skew", "topk"};
// Fixed operation count (see harness.h): 100 per family, so each family's
// p90 has ten samples beyond it.
constexpr int64_t kOps = 400;

class OlapStar : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed);
    ZipfGenerator zipf(kPromos, 0.99, seed + 1);
    std::vector<int64_t> id(kFactRows), cust(kFactRows), day(kFactRows),
        qty(kFactRows), cents(kFactRows), promo(kFactRows);
    for (int64_t i = 0; i < kFactRows; ++i) {
      size_t r = static_cast<size_t>(i);
      id[r] = i;
      cust[r] = rng.NextInt(0, kCustomers - 1);
      day[r] = rng.NextInt(0, 364);
      qty[r] = rng.NextInt(1, 10);
      cents[r] = rng.NextInt(100, 10000);
      promo[r] = static_cast<int64_t>(zipf.Next());
    }
    sales_ = IntTable({"id", "cust", "day", "qty", "cents", "promo"},
                      {id, cust, day, qty, cents, promo});
    std::vector<int64_t> cid(kCustomers), region(kCustomers), segment(kCustomers);
    for (int64_t i = 0; i < kCustomers; ++i) {
      cid[static_cast<size_t>(i)] = i;
      region[static_cast<size_t>(i)] = rng.NextInt(0, 24);
      segment[static_cast<size_t>(i)] = rng.NextInt(0, 4);
    }
    customers_ = IntTable({"cust_id", "region", "segment"}, {cid, region, segment});
    // The ten hottest promo ids share kind 0; templates select kinds 1..19,
    // so the promo side of the skew join is small and selective.
    std::vector<int64_t> pid(kPromos), kind(kPromos);
    for (int64_t i = 0; i < kPromos; ++i) {
      pid[static_cast<size_t>(i)] = i;
      kind[static_cast<size_t>(i)] = i < 10 ? 0 : 1 + i % 19;
    }
    promos_ = IntTable({"promo_id", "kind"}, {pid, kind});

    // Variants move fixed-width windows, so every seed runs the same
    // amount of work per family.
    for (int v = 0; v < kVariants; ++v) {
      int64_t d = rng.NextInt(0, 120);
      int64_t k = rng.NextInt(1, 19);
      Add("agg", StrCat("from sales | where day >= ", d, " and day < ", d + 91,
                        " and qty >= 3",
                        " | extend rev := qty * cents"
                        " | group by day aggregate sum(rev) as revenue, count(*) as n"
                        " | sort by day"));
      // Aggregate straight over the join: no fusable chain, so the
      // aggregate lowers to the semi-ring kernel (alg.Agg).
      Add("star", StrCat("from sales | where day >= ", d, " and day < ", d + 120,
                         " | join customers on cust = cust_id"
                         " | group by region aggregate sum(qty) as units,"
                         " count(*) as n | sort by region"));
      Add("skew", StrCat("from sales | where day >= ", d, " and day < ", d + 180,
                         " | join customers on cust = cust_id"
                         " | join promos on promo = promo_id | where kind == ", k,
                         " | group by segment aggregate count(*) as n,"
                         " sum(qty) as units | sort by segment"));
      Add("topk", StrCat("from sales | where qty >= 9 and day >= ", d,
                         " and day < ", d + 60, " | sort by cents desc, id | limit 100"));
    }
    ComputeExpected(Tables(), &templates_);
  }

  void Setup() override {
    server_.reset();
    cluster_ = std::make_unique<Cluster>();
    NEXUS_CHECK(cluster_->AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("dimstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("reference", MakeReferenceProvider()).ok());
    NEXUS_CHECK(cluster_->PutData("relstore", "sales", Dataset(sales_)).ok());
    NEXUS_CHECK(cluster_->PutData("relstore", "promos", Dataset(promos_)).ok());
    NEXUS_CHECK(cluster_->PutData("dimstore", "customers", Dataset(customers_)).ok());
    server_ =
        std::make_unique<service::Server>(cluster_.get(), BaseServerOptions(trace_));
    NEXUS_CHECK(server_->RegisterTenant("analyst", {}).ok());
    session_ = server_->OpenSession("analyst").ValueOrDie();
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

 private:
  void Add(const std::string& family, std::string bdl) {
    Template t;
    t.name = family;
    t.bdl = std::move(bdl);
    templates_.push_back(std::move(t));
  }

  std::vector<std::pair<std::string, Dataset>> Tables() const {
    return {{"sales", Dataset(sales_)},
            {"customers", Dataset(customers_)},
            {"promos", Dataset(promos_)}};
  }

  uint64_t seed_ = 0;
  TablePtr sales_, customers_, promos_;
  std::vector<Template> templates_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<service::Server> server_;
  int64_t session_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOlapStar() { return std::make_unique<OlapStar>(); }

}  // namespace nexbench
