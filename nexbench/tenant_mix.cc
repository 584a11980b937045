// tenant_mix: the served system. A Server with 4 slots, the pool at one
// thread, seeded 1% transport drops, and four client threads, each a closed
// loop that sends its next operation as soon as the previous reply is in:
//   three readers         one session per query class (interactive,
//                         standard, batch); each cycles through the same
//                         five read families with equal weight:
//     join                key-range ⋈ remote dimension
//     orders_bdl          a key-range group-by submitted as BDL text
//     view                a scan of the aggregate view the writer keeps
//     array               arraydb Slice → linalg ElemWise, the slices moving
//                         server to server
//     iterate             a 300-node PageRank Iterate shipped whole (E6) to
//                         the reader's own relational server
//   writer                micro-batch Append to `events` on its holder's
//                         catalog + ViewRegistry::Refresh of the view over
//                         it, one per round of reads (it sends write i once
//                         the readers have completed 3·i reads); every
//                         kReplaceEvery appends a Put-replace restores the
//                         base table, so growth stays bounded
// Every client sends the same number of operations. Repeated templates make
// the plan caches hit. Federation, the wire codec, providers, the service
// and the write path do the work; engine kernels do little.
#include <atomic>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/expansion.h"
#include "exec/incremental/view.h"
#include "expr/builder.h"
#include "harness.h"
#include "provider/provider.h"

namespace nexbench {

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

// Small tables and narrow key ranges: each read does little engine work, so
// the served layers' per-query costs are a large share of its latency.
constexpr int64_t kOrders = 50000;
constexpr int64_t kAccounts = 2000;
constexpr int64_t kKeyRange = 2000;
constexpr int64_t kEventsBase = 4096;
constexpr int64_t kGroups = 64;
constexpr int64_t kBatchRows = 64;
constexpr int64_t kReplaceEvery = 32;
constexpr int64_t kCheckEvery = 8;  // refreshes checked against a full recompute
constexpr int64_t kArrayN = 128;
constexpr int64_t kTile = 32;
constexpr int64_t kLinkNodes = 300;
constexpr int64_t kLinkEdges = 1200;
constexpr int64_t kLoopRounds = 3;
constexpr int kVariants = 4;
constexpr int kReaders = 3;
constexpr int kWriter = kReaders;  // client index of the writer
// Operations per client; the count is fixed (see harness.h). Each read
// family gets 600 per reader.
constexpr int64_t kOps = 3000;
const char* const kReadCycle[] = {"join", "orders_bdl", "view", "array", "iterate"};
const service::QueryClass kReaderClass[kReaders] = {
    service::QueryClass::kInteractive, service::QueryClass::kStandard,
    service::QueryClass::kBatch};
const char* const kReaderTenant[kReaders] = {"interactive", "standard", "batch"};

TablePtr Grid(Rng* rng) {
  std::vector<int64_t> is, js;
  std::vector<double> vs;
  for (int64_t i = 0; i < kArrayN; ++i) {
    for (int64_t j = 0; j < kArrayN; ++j) {
      is.push_back(i);
      js.push_back(j);
      vs.push_back(rng->NextDouble(-1, 1));
    }
  }
  SchemaPtr s = Schema::Make({Field::Dim("i"), Field::Dim("j"),
                              Field::Attr("v", DataType::kFloat64)})
                    .ValueOrDie();
  return Table::Make(s, {Column::FromInt64(is), Column::FromInt64(js),
                         Column::FromFloat64(vs)})
      .ValueOrDie();
}

class TenantMix : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed);
    std::vector<int64_t> k(kOrders), cust(kOrders), qty(kOrders), cents(kOrders);
    for (int64_t r = 0; r < kOrders; ++r) {
      size_t i = static_cast<size_t>(r);
      k[i] = r;
      cust[i] = rng.NextInt(0, kAccounts - 1);
      qty[i] = rng.NextInt(1, 10);
      cents[i] = rng.NextInt(100, 10000);
    }
    orders_ = IntTable({"k", "cust", "qty", "cents"}, {k, cust, qty, cents});
    std::vector<int64_t> cid(kAccounts), region(kAccounts);
    for (int64_t r = 0; r < kAccounts; ++r) {
      cid[static_cast<size_t>(r)] = r;
      region[static_cast<size_t>(r)] = rng.NextInt(0, 15);
    }
    accounts_ = IntTable({"cust_id", "region"}, {cid, region});
    events_base_ = EventBatch(&rng, kEventsBase);
    a_ = Grid(&rng);
    b_ = Grid(&rng);
    std::vector<int64_t> src(kLinkEdges), dst(kLinkEdges);
    for (int64_t e = 0; e < kLinkEdges; ++e) {
      src[static_cast<size_t>(e)] = rng.NextInt(0, kLinkNodes - 1);
      dst[static_cast<size_t>(e)] = rng.NextInt(0, kLinkNodes - 1);
    }
    links_ = IntTable({"src", "dst"}, {src, dst});

    std::vector<int> owner;  // reader owning each template; -1 when shared
    for (int v = 0; v < kVariants; ++v) {
      int64_t lo = rng.NextInt(0, kOrders - kKeyRange);
      Template join;
      join.name = "join";
      join.plan = Plan::Sort(
          Plan::Aggregate(
              Plan::Join(Plan::Select(Plan::Scan("orders"),
                                      And(Ge(Col("k"), Lit(lo)),
                                          Lt(Col("k"), Lit(lo + kKeyRange)))),
                         Plan::Scan("accounts"), JoinType::kInner, {"cust"},
                         {"cust_id"}),
              {"region"},
              {AggSpec{AggFunc::kSum, Col("cents"), "revenue"},
               AggSpec{AggFunc::kCount, nullptr, "n"}}),
          {{"region", true}});
      templates_.push_back(join);
      owner.push_back(-1);

      int64_t lo2 = rng.NextInt(0, kOrders - 2 * kKeyRange);
      Template text;
      text.name = "orders_bdl";
      text.bdl = StrCat("from orders | where k >= ", lo2, " and k < ",
                        lo2 + 2 * kKeyRange,
                        " | group by cust aggregate sum(qty) as units"
                        " | sort by units desc, cust | limit 20");
      templates_.push_back(text);
      owner.push_back(-1);

      int64_t r0 = rng.NextInt(0, kArrayN - kTile), c0 = rng.NextInt(0, kArrayN - kTile);
      std::vector<DimRange> tile = {{"i", r0, r0 + kTile}, {"j", c0, c0 + kTile}};
      Template arr;
      arr.name = "array";
      arr.plan = Plan::ElemWise(Plan::Slice(Plan::Scan("A"), tile),
                                Plan::Slice(Plan::Scan("B"), tile), BinaryOp::kMul);
      arr.tolerant = true;
      templates_.push_back(arr);
      owner.push_back(-1);

      // Each reader's Iterate scans its own copy of the edge table, held by
      // a relational server of its own (see Setup).
      PageRankOp pr;
      pr.damping = 0.80 + 0.05 * v;
      pr.max_iters = kLoopRounds;
      pr.epsilon = 0.0;
      for (int c = 0; c < kReaders; ++c) {
        Template loop;
        loop.name = "iterate";
        loop.plan = ExpandPageRank(Plan::Scan(LinksTable(c)), pr, *links_->schema())
                        .ValueOrDie();
        loop.tolerant = true;
        templates_.push_back(loop);
        owner.push_back(c);
      }
    }
    std::vector<std::pair<std::string, Dataset>> tables = {
        {"orders", Dataset(orders_)},
        {"accounts", Dataset(accounts_)},
        {"A", Dataset(a_)},
        {"B", Dataset(b_)}};
    for (int c = 0; c < kReaders; ++c) {
      tables.emplace_back(LinksTable(c), Dataset(links_));
    }
    ComputeExpected(tables, &templates_);
    // Per-reader candidate lists: the shared families, plus the reader's own
    // Iterates.
    for (size_t t = 0; t < templates_.size(); ++t) {
      for (int c = 0; c < kReaders; ++c) {
        if (owner[t] < 0 || owner[t] == c) candidates_[c].push_back(templates_[t]);
      }
    }
    view_read_.name = "view";
    view_read_.bdl = "from events_view";
    view_plan_ = Plan::Aggregate(Plan::Scan("events"), {"g"},
                                 {AggSpec{AggFunc::kSum, Col("v"), "total"},
                                  AggSpec{AggFunc::kCount, nullptr, "n"}});
  }

  void Setup() override {
    server_.reset();
    views_.reset();
    cluster_ = std::make_unique<Cluster>();
    FaultOptions faults;
    faults.enabled = true;
    faults.drop_probability = 0.01;
    faults.seed = seed_;
    cluster_->transport()->SetFaultOptions(faults);
    NEXUS_CHECK(cluster_->AddServer("relstore", MakeRelationalProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("dimstore", MakeRelationalProvider()).ok());
    // Each reader's loop runs on a relational server of its own:
    // RelationalProvider keeps one loop-variable stack per provider and
    // clears it at every Execute, so any other query on the same provider
    // beside a running Iterate corrupts the loop.
    for (int c = 0; c < kReaders; ++c) {
      std::string store = StrCat("loopstore", c);
      NEXUS_CHECK(cluster_->AddServer(store, MakeRelationalProvider()).ok());
      NEXUS_CHECK(cluster_->PutData(store, LinksTable(c), Dataset(links_)).ok());
    }
    NEXUS_CHECK(cluster_->AddServer("arraydb", MakeArrayProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("linalg", MakeLinalgProvider()).ok());
    NEXUS_CHECK(cluster_->AddServer("reference", MakeReferenceProvider()).ok());
    NEXUS_CHECK(cluster_->PutData("relstore", "orders", Dataset(orders_)).ok());
    NEXUS_CHECK(cluster_->PutData("relstore", "events", Dataset(events_base_)).ok());
    NEXUS_CHECK(cluster_->PutData("dimstore", "accounts", Dataset(accounts_)).ok());
    NEXUS_CHECK(
        cluster_->PutData("arraydb", "A", Dataset(Dataset(a_).AsArray(64).ValueOrDie()))
            .ok());
    NEXUS_CHECK(
        cluster_->PutData("arraydb", "B", Dataset(Dataset(b_).AsArray(64).ValueOrDie()))
            .ok());
    catalog_ = cluster_->provider("relstore")->catalog();
    views_ = std::make_unique<incremental::ViewRegistry>(catalog_);
    NEXUS_CHECK(views_->Register("events_agg", view_plan_).ok());
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      versions_.clear();
    }
    Publish(views_->Current("events_agg").ValueOrDie());

    service::ServerOptions options = BaseServerOptions(trace_);
    options.max_concurrent = 4;
    server_ = std::make_unique<service::Server>(cluster_.get(), options);
    for (int c = 0; c < kReaders; ++c) {
      NEXUS_CHECK(server_->RegisterTenant(kReaderTenant[c], {}).ok());
      sessions_[c] = server_->OpenSession(kReaderTenant[c]).ValueOrDie();
    }
    WarmUp(*server_, sessions_[0], templates_);
    if (!ReadView(0).ok) ++warmup_failures_;
    if (!Write(0).ok) ++warmup_failures_;
    reads_done_ = 0;
  }

  int clients() const override { return kReaders + 1; }
  int64_t ops_cap(int) const override { return kOps; }
  int pool_threads() const override { return 1; }

  bool Ready(int c, int64_t i) const override {
    return c != kWriter || reads_done_.load() >= kReaders * i;
  }

  Sample Step(int c, int64_t i) override {
    if (c == kWriter) return Write(i + 1);
    // The readers start the cycle at different families.
    const std::string family = kReadCycle[(i + c) % std::size(kReadCycle)];
    Sample s = family == "view"
                   ? ReadView(c)
                   : Read(*server_, sessions_[c],
                          PickVariant(candidates_[c], family, seed_, c, i),
                          {kReaderClass[c], 0.0});
    reads_done_.fetch_add(1);
    return s;
  }

  Cluster& cluster() override { return *cluster_; }
  service::Server& server() override { return *server_; }
  const std::vector<Template>& templates() const override { return templates_; }

  void LayerFigures(std::vector<Metric>* out) override {
    std::vector<double> full = tally_.Values("incremental.full");
    double full_sum = 0.0;
    for (double f : full) full_sum += f;
    out->push_back({"core.append_ms", Quantile(tally_.Values("core.append_ms"), 0.5),
                    "ms"});
    out->push_back({"incremental.refresh_ms",
                    Quantile(tally_.Values("incremental.refresh_ms"), 0.5), "ms"});
    out->push_back({"incremental.fallback_ratio",
                    full.empty() ? 0.0 : full_sum / static_cast<double>(full.size()),
                    "ratio"});
    out->push_back({"incremental.state_bytes",
                    static_cast<double>(views_->state_bytes()), "bytes"});
  }

 private:
  static TablePtr EventBatch(Rng* rng, int64_t rows) {
    std::vector<int64_t> g(static_cast<size_t>(rows)), v(static_cast<size_t>(rows));
    for (size_t r = 0; r < g.size(); ++r) {
      g[r] = rng->NextInt(0, kGroups - 1);
      v[r] = rng->NextInt(0, 1000);
    }
    return IntTable({"g", "v"}, {g, v});
  }

  // Versions are pushed and Put under one lock, so the catalog always holds
  // the last pushed version and a reader's scan sees one of the versions
  // pushed between its start and its check.
  void Publish(TablePtr view) {
    std::lock_guard<std::mutex> lock(versions_mu_);
    versions_.push_back(view);
    NEXUS_CHECK(catalog_->Put("events_view", Dataset(view)).ok());
  }

  static std::string LinksTable(int reader) { return StrCat("links", reader); }

  Sample ReadView(int c) {
    size_t first = 0;
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      first = versions_.size() - 1;
    }
    return Read(*server_, sessions_[c], view_read_, {kReaderClass[c], 0.0},
                [&](const Dataset& got) {
                  auto table = got.AsTable();
                  if (!table.ok()) return false;
                  std::lock_guard<std::mutex> lock(versions_mu_);
                  for (size_t v = first; v < versions_.size(); ++v) {
                    if (table.ValueOrDie()->Equals(*versions_[v])) return true;
                  }
                  return false;
                });
  }

  Sample Write(int64_t i) {
    Rng rng(Mix(seed_, kWriter, static_cast<uint64_t>(i)));
    TablePtr batch = EventBatch(&rng, kBatchRows);
    Sample s;
    s.family = "write";
    s.write = true;
    WallTimer timer;
    Status appended = catalog_->Append("events", Dataset(batch));
    double append_ms = timer.ElapsedMillis();
    incremental::RefreshInfo info;
    auto view = views_->Refresh("events_agg", &info);
    s.latency_ms = timer.ElapsedMillis();
    tally_.Add("core.append_ms", append_ms);
    tally_.Add("incremental.refresh_ms", s.latency_ms - append_ms);
    tally_.Add("incremental.full", info.incremental ? 0.0 : 1.0);
    s.ok = appended.ok() && view.ok();
    if (s.ok && i % kCheckEvery == 0) {
      auto full = incremental::ExecuteViewPlan(*view_plan_, *catalog_);
      s.ok = full.ok() && full.ValueOrDie()->Equals(*view.ValueOrDie());
    }
    if (s.ok) Publish(view.ValueOrDie());
    if (!s.ok) {
      std::fprintf(stderr, "write %lld failed or mismatched\n",
                   static_cast<long long>(i));
    }
    if ((i + 1) % kReplaceEvery == 0) {
      NEXUS_CHECK(catalog_->Put("events", Dataset(events_base_)).ok());
    }
    return s;
  }

  uint64_t seed_ = 0;
  TablePtr orders_, accounts_, events_base_, a_, b_, links_;
  std::vector<Template> templates_;
  Template view_read_;
  PlanPtr view_plan_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<service::Server> server_;
  std::unique_ptr<incremental::ViewRegistry> views_;
  InMemoryCatalog* catalog_ = nullptr;
  std::vector<Template> candidates_[kReaders];
  int64_t sessions_[kReaders] = {0, 0, 0};
  std::atomic<int64_t> reads_done_{0};
  std::mutex versions_mu_;
  std::vector<TablePtr> versions_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantMix() { return std::make_unique<TenantMix>(); }

}  // namespace nexbench
