// Federation tests: placement, fragmentation, direct vs relayed transfers,
// expression shipping vs per-op calls, and provider-side vs client-driven
// iteration — the executable form of desiderata 2 and 4.
#include <gtest/gtest.h>

#include <thread>

#include "common/parallel.h"
#include "common/random.h"
#include "core/serialize.h"
#include "core/wire_format.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::ExpectSameBits;
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::S;

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    ASSERT_OK(cluster_->AddServer("relstore", MakeRelationalProvider()));
    ASSERT_OK(cluster_->AddServer("arraydb", MakeArrayProvider()));
    ASSERT_OK(cluster_->AddServer("linalg", MakeLinalgProvider()));
    ASSERT_OK(cluster_->AddServer("graphd", MakeGraphProvider()));
    ASSERT_OK(cluster_->AddServer("reference", MakeReferenceProvider()));

    Rng rng(7);
    // Relational data on relstore.
    SchemaPtr orders = MakeSchema({Field::Attr("oid", DataType::kInt64),
                                   Field::Attr("sensor", DataType::kInt64),
                                   Field::Attr("amount", DataType::kFloat64)});
    TableBuilder ob(orders);
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_OK(ob.AppendRow(
          {I(i), I(rng.NextInt(0, 19)), F(rng.NextDouble(0, 100))}));
    }
    ASSERT_OK(cluster_->PutData("relstore", "orders",
                                Dataset(ob.Finish().ValueOrDie())));

    // Array data on arraydb.
    SchemaPtr grid = MakeSchema({Field::Dim("i"), Field::Dim("k"),
                                 Field::Attr("v", DataType::kFloat64)});
    TableBuilder gb(grid);
    for (int64_t i = 0; i < 16; ++i) {
      for (int64_t k = 0; k < 16; ++k) {
        ASSERT_OK(gb.AppendRow(
            {I(i), I(k), F(static_cast<double>(rng.NextInt(1, 5)))}));
      }
    }
    matrix_ = gb.Finish().ValueOrDie();
    ASSERT_OK(cluster_->PutData("arraydb", "M", Dataset(matrix_)));
    // Second matrix, also on arraydb.
    SchemaPtr grid2 = MakeSchema({Field::Dim("k"), Field::Dim("j"),
                                  Field::Attr("w", DataType::kFloat64)});
    TableBuilder g2(grid2);
    for (int64_t k = 0; k < 16; ++k) {
      for (int64_t j = 0; j < 12; ++j) {
        ASSERT_OK(g2.AppendRow(
            {I(k), I(j), F(static_cast<double>(rng.NextInt(1, 5)))}));
      }
    }
    matrix2_ = g2.Finish().ValueOrDie();
    ASSERT_OK(cluster_->PutData("arraydb", "N", Dataset(matrix2_)));

    // Graph data on graphd.
    SchemaPtr edges = MakeSchema({Field::Attr("src", DataType::kInt64),
                                  Field::Attr("dst", DataType::kInt64)});
    TableBuilder eb(edges);
    for (int64_t e = 0; e < 150; ++e) {
      ASSERT_OK(eb.AppendRow({I(rng.NextInt(0, 29)), I(rng.NextInt(0, 29))}));
    }
    ASSERT_OK(cluster_->PutData("graphd", "edges",
                                Dataset(eb.Finish().ValueOrDie())));
  }

  // Reference result computed in one local catalog holding everything.
  Dataset ReferenceResult(const PlanPtr& plan) {
    InMemoryCatalog cat;
    EXPECT_OK(cat.Put("orders",
                      cluster_->provider("relstore")->catalog()->Get("orders").ValueOrDie()));
    EXPECT_OK(cat.Put("M", Dataset(matrix_)));
    EXPECT_OK(cat.Put("N", Dataset(matrix2_)));
    EXPECT_OK(cat.Put("edges",
                      cluster_->provider("graphd")->catalog()->Get("edges").ValueOrDie()));
    ReferenceExecutor exec(&cat);
    auto r = exec.Execute(*plan);
    EXPECT_OK(r.status());
    return r.ValueOrDie();
  }

  void ExpectNoTemps() {
    for (const std::string& s : cluster_->ServerNames()) {
      for (const std::string& name :
           cluster_->provider(s)->catalog()->Names()) {
        EXPECT_EQ(name.find("__frag_"), std::string::npos)
            << "leftover temp " << name << " on " << s;
      }
    }
  }

  std::unique_ptr<Cluster> cluster_;
  TablePtr matrix_, matrix2_;
};

TEST_F(FederationTest, FederatedCatalogResolvesAcrossServers) {
  FederatedCatalog cat(cluster_.get());
  EXPECT_TRUE(cat.Contains("orders"));
  EXPECT_TRUE(cat.Contains("M"));
  EXPECT_FALSE(cat.Contains("nope"));
  ASSERT_OK_AND_ASSIGN(SchemaPtr s, cat.GetSchema("M"));
  EXPECT_EQ(s->num_dimensions(), 2);
}

TEST_F(FederationTest, SingleServerQueryShipsOneTree) {
  Coordinator coord(cluster_.get());
  PlanPtr p = Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))),
      {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(p, &m));
  EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(p)));
  EXPECT_EQ(m.profile[QueryStat::kFragments], 1);
  EXPECT_EQ(m.profile[QueryStat::kPlanMessages], 1);
  // result back to the client
  EXPECT_EQ(m.profile[QueryStat::kDataMessages], 1);
  EXPECT_GT(m.profile[QueryStat::kPlanBytes], 0);
}

TEST_F(FederationTest, PlacementSendsOpsToSpecialists) {
  Coordinator coord(cluster_.get());
  PlanPtr mm = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod");
  ASSERT_OK_AND_ASSIGN(std::string explain, coord.ExplainPlacement(mm));
  EXPECT_NE(explain.find("matmul[-> prod]  @linalg"), std::string::npos) << explain;
  EXPECT_NE(explain.find("scan[M]  @arraydb"), std::string::npos) << explain;

  PageRankOp pr;
  PlanPtr prp = Plan::PageRank(Plan::Scan("edges"), pr);
  ASSERT_OK_AND_ASSIGN(std::string explain2, coord.ExplainPlacement(prp));
  EXPECT_NE(explain2.find("@graphd"), std::string::npos) << explain2;
}

TEST_F(FederationTest, MultiServerMatMulIsCorrect) {
  Coordinator coord(cluster_.get());
  PlanPtr mm = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod");
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(mm, &m));
  EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(mm)));
  // Two scan fragments at arraydb, one matmul fragment at linalg.
  EXPECT_EQ(m.profile[QueryStat::kFragments], 3);
  EXPECT_GE(m.nodes_per_server["linalg"], 1);
}

TEST_F(FederationTest, DirectTransferBypassesClient) {
  PlanPtr mm = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod");

  CoordinatorOptions direct;
  direct.transfer_mode = TransferMode::kDirect;
  Coordinator dcoord(cluster_.get(), direct);
  ExecutionMetrics dm;
  ASSERT_OK_AND_ASSIGN(Dataset d1, dcoord.Execute(mm, &dm));

  CoordinatorOptions relay;
  relay.transfer_mode = TransferMode::kRelay;
  Coordinator rcoord(cluster_.get(), relay);
  ExecutionMetrics rm;
  ASSERT_OK_AND_ASSIGN(Dataset d2, rcoord.Execute(mm, &rm));

  EXPECT_TRUE(d1.LogicallyEquals(d2));
  // Both intermediates (M and N, moved arraydb → linalg) pass through the
  // client only in relay mode; both modes pay the final result delivery.
  EXPECT_LT(dm.profile[QueryStat::kClientBytes],
            rm.profile[QueryStat::kClientBytes]);
  EXPECT_GT(rm.profile[QueryStat::kDataMessages],
            dm.profile[QueryStat::kDataMessages]);
  // Total intermediate bytes are identical; relay pays them twice. Data is
  // metered at its serialized wire size, so the result delivery (identical
  // in both modes) is isolated the same way.
  int64_t result_wire = static_cast<int64_t>(
      SerializeDatasetWire(d1, cluster_->transport()->NegotiatedFormat(
                                   "linalg", kClientNode))
          .size());
  int64_t intermediate_direct =
      dm.profile[QueryStat::kDataBytes] - result_wire;
  int64_t intermediate_relay = rm.profile[QueryStat::kDataBytes] - result_wire;
  EXPECT_GT(intermediate_direct, 0);
  EXPECT_EQ(intermediate_relay, 2 * intermediate_direct);
}

TEST_F(FederationTest, MixedRelationalArrayQuery) {
  // Regrid on arraydb, then join the result with orders on relstore.
  Coordinator coord(cluster_.get());
  PlanPtr agg_grid = Plan::Regrid(Plan::Scan("M"), {{"i", 4}, {"k", 16}},
                                  AggFunc::kSum);
  // Result: {i*, k*, v}: one row per (i/4); join i-bucket with orders.sensor.
  PlanPtr p = Plan::Join(Plan::Scan("orders"), Plan::Unbox(agg_grid),
                         JoinType::kInner, {"sensor"}, {"i"});
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(p, &m));
  EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(p)));
  // at least arraydb + relstore fragments
  EXPECT_GE(m.profile[QueryStat::kFragments], 2);
  EXPECT_GE(m.nodes_per_server["arraydb"], 1);
  EXPECT_GE(m.nodes_per_server["relstore"], 1);
}

TEST_F(FederationTest, TreeShippingBeatsPerOpCalls) {
  PlanPtr p = Plan::Scan("orders");
  p = Plan::Select(p, Gt(Col("amount"), Lit(10.0)));
  p = Plan::Extend(p, {{"tax", Mul(Col("amount"), Lit(0.2))}});
  p = Plan::Aggregate(p, {"sensor"}, {AggSpec{AggFunc::kSum, Col("tax"), "t"}});
  p = Plan::Sort(p, {{"t", false}});
  p = Plan::Limit(p, 5, 0);

  Coordinator coord(cluster_.get());
  ExecutionMetrics tree, perop;
  ASSERT_OK_AND_ASSIGN(Dataset r1, coord.Execute(p, &tree));
  CoordinatorOptions no_opt;
  no_opt.optimize = false;  // keep the operator count identical
  Coordinator coord2(cluster_.get(), no_opt);
  ASSERT_OK_AND_ASSIGN(Dataset r2, coord2.ExecutePerOp(p, &perop));
  EXPECT_TRUE(r1.LogicallyEquals(r2));
  EXPECT_LT(tree.profile[QueryStat::kMessages],
            perop.profile[QueryStat::kMessages]);
  // one call per operator
  EXPECT_GE(perop.profile[QueryStat::kPlanMessages], 6);
  EXPECT_LT(tree.profile[QueryStat::kClientBytes],
            perop.profile[QueryStat::kClientBytes]);
}

TEST_F(FederationTest, ProviderSideIterationSavesRoundTrips) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(cluster_->PutData("relstore", "state0",
                              Dataset(MakeTable(s, {{F(1024.0)}}))));
  IterateOp op;
  op.body = Plan::Rename(
      Plan::Project(
          Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
          {"h"}),
      {{"h", "v"}});
  op.max_iters = 8;
  PlanPtr it = Plan::Iterate(Plan::Scan("state0"), op);

  CoordinatorOptions server_side;
  server_side.provider_side_iteration = true;
  Coordinator sc(cluster_.get(), server_side);
  ExecutionMetrics sm;
  ASSERT_OK_AND_ASSIGN(Dataset r1, sc.Execute(it, &sm));

  CoordinatorOptions client_side;
  client_side.provider_side_iteration = false;
  Coordinator cc(cluster_.get(), client_side);
  ExecutionMetrics cm;
  ASSERT_OK_AND_ASSIGN(Dataset r2, cc.Execute(it, &cm));

  EXPECT_TRUE(r1.LogicallyEquals(r2));
  ASSERT_OK_AND_ASSIGN(TablePtr t, r1.AsTable());
  EXPECT_EQ(t->At(0, 0), F(4.0));  // 1024 / 2^8
  EXPECT_EQ(sm.profile[QueryStat::kClientLoopIterations], 0);
  EXPECT_EQ(cm.profile[QueryStat::kClientLoopIterations], 8);
  EXPECT_LT(sm.profile[QueryStat::kMessages],
            cm.profile[QueryStat::kMessages]);
  // Client-driven: at least one plan + one data message per iteration.
  EXPECT_GE(cm.profile[QueryStat::kMessages], 16);
}

TEST_F(FederationTest, FederatedPageRank) {
  PageRankOp op;
  op.max_iters = 50;
  op.epsilon = 1e-10;
  PlanPtr pr = Plan::PageRank(Plan::Scan("edges"), op);
  Coordinator coord(cluster_.get());
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(pr, &m));
  Dataset want = ReferenceResult(pr);
  ASSERT_OK_AND_ASSIGN(TablePtr gt, got.AsTable());
  ASSERT_OK_AND_ASSIGN(TablePtr wt, want.AsTable());
  ASSERT_EQ(gt->num_rows(), wt->num_rows());
  for (int64_t r = 0; r < gt->num_rows(); ++r) {
    EXPECT_EQ(gt->At(r, 0), wt->At(r, 0));
    EXPECT_NEAR(gt->At(r, 1).AsDouble(), wt->At(r, 1).AsDouble(), 1e-9);
  }
  EXPECT_GE(m.nodes_per_server["graphd"], 1);
}

TEST_F(FederationTest, JoinRunsWhereTheBulkierInputLives) {
  // Two relational servers; the fact table dwarfs the dimension table. The
  // size-aware tiebreak must host the join next to the fact data so only
  // the small side ships.
  Cluster two;
  ASSERT_OK(two.AddServer("rel_big", MakeRelationalProvider()));
  ASSERT_OK(two.AddServer("rel_small", MakeRelationalProvider()));
  Rng rng(3);
  SchemaPtr fact = MakeSchema({Field::Attr("k", DataType::kInt64),
                               Field::Attr("v", DataType::kFloat64)});
  TableBuilder fb(fact);
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_OK(fb.AppendRow({I(rng.NextInt(0, 9)), F(rng.NextDouble(0, 1))}));
  }
  ASSERT_OK(two.PutData("rel_big", "fact", Dataset(fb.Finish().ValueOrDie())));
  SchemaPtr dim = MakeSchema({Field::Attr("id", DataType::kInt64),
                              Field::Attr("name", DataType::kString)});
  TableBuilder db(dim);
  for (int64_t i = 0; i < 10; ++i) ASSERT_OK(db.AppendRow({I(i), S("x")}));
  ASSERT_OK(two.PutData("rel_small", "dim", Dataset(db.Finish().ValueOrDie())));

  Coordinator coord(&two);
  PlanPtr join = Plan::Join(Plan::Scan("dim"), Plan::Scan("fact"),
                            JoinType::kInner, {"id"}, {"k"});
  ASSERT_OK_AND_ASSIGN(std::string explain, coord.ExplainPlacement(join));
  EXPECT_NE(explain.find("join[inner, id=k]  @rel_big"), std::string::npos)
      << explain;
  // And the execution ships only the small side + result through the wire.
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset r, coord.Execute(join, &m));
  EXPECT_GT(r.num_rows(), 0);
  int64_t fact_bytes = two.provider("rel_big")->catalog()->Get("fact")
                           .ValueOrDie()
                           .ByteSize();
  // The dim-side transfer is far smaller than shipping the fact table.
  EXPECT_LT(m.profile[QueryStat::kDataBytes] - r.ByteSize(), fact_bytes / 10);
}

TEST_F(FederationTest, MissingTableFailsCleanly) {
  Coordinator coord(cluster_.get());
  auto r = coord.Execute(Plan::Scan("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(FederationTest, TempsAreCleanedUp) {
  Coordinator coord(cluster_.get());
  PlanPtr mm = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"));
  ASSERT_OK(coord.Execute(mm).status());
  for (const std::string& s : cluster_->ServerNames()) {
    for (const std::string& name : cluster_->provider(s)->catalog()->Names()) {
      EXPECT_TRUE(name.find("__frag_") == std::string::npos)
          << "leftover temp " << name << " on " << s;
    }
  }
}

TEST_F(FederationTest, SimulatedTimeTracksBytesAndLatency) {
  TransportOptions slow;
  slow.latency_seconds = 0.05;
  slow.bandwidth_bytes_per_second = 1e6;
  Cluster slow_cluster(slow);
  ASSERT_OK(slow_cluster.AddServer("relstore", MakeRelationalProvider()));
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64)});
  TableBuilder b(s);
  for (int64_t i = 0; i < 1000; ++i) ASSERT_OK(b.AppendRow({I(i)}));
  ASSERT_OK(slow_cluster.PutData("relstore", "t", Dataset(b.Finish().ValueOrDie())));
  Coordinator coord(&slow_cluster);
  ExecutionMetrics m;
  ASSERT_OK(coord.Execute(Plan::Scan("t"), &m).status());
  // 2 messages (plan + data) at 50 ms latency plus 8 KB / 1 MB/s.
  EXPECT_GT(m.profile.simulated_seconds(), 0.1);
  EXPECT_LT(m.profile.simulated_seconds(), 0.2);
}

// ---------------------------------------------------------------------------
// Fault tolerance: retry/backoff, failover replanning, and checkpoints.
// ---------------------------------------------------------------------------

TEST_F(FederationTest, ZeroOverheadWhenFaultsAreOff) {
  // An aggressive retry policy must not change a single metric while the
  // transport injects no faults: the recovery machinery is pure bystander.
  PlanPtr p = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod");
  auto run = [&](CoordinatorOptions opts, bool armed, ExecutionMetrics* m) {
    if (armed) {
      opts.retry.max_attempts = 16;
      opts.retry.fragment_timeout_seconds = 0.5;
      opts.retry.checkpoint_every = 1;
    }
    Coordinator coord(cluster_.get(), opts);
    auto r = coord.Execute(p, m);
    EXPECT_OK(r.status());
    m->wall_seconds = 0.0;  // the only wall-clock field
    return r.ok() ? std::move(r).ValueOrDie() : Dataset();
  };

  // Sequential dispatch: the whole metrics line, byte counts included, is
  // identical.
  CoordinatorOptions sequential;
  sequential.thread_count = 1;
  ExecutionMetrics pm, gm;
  Dataset r1 = run(sequential, false, &pm);
  Dataset r2 = run(sequential, true, &gm);
  EXPECT_TRUE(r1.LogicallyEquals(r2));
  EXPECT_EQ(pm.ToString(), gm.ToString());

  // Default budget: the two scan fragments go out concurrently, but temps
  // are named by plan position, so every stat — byte counts included — is
  // equal, and no recovery stat counts.
  ExecutionMetrics cpm, cgm;
  Dataset c1 = run(CoordinatorOptions{}, false, &cpm);
  Dataset c2 = run(CoordinatorOptions{}, true, &cgm);
  EXPECT_TRUE(c1.LogicallyEquals(c2));
  EXPECT_TRUE(r1.LogicallyEquals(c1));
  for (int i = 0; i < static_cast<int>(QueryStat::kCount_); ++i) {
    const QueryStat stat = static_cast<QueryStat>(i);
    EXPECT_EQ(cpm.profile[stat], cgm.profile[stat]) << QueryStatName(stat);
  }
  for (const ExecutionMetrics* m : {&gm, &cgm}) {
    for (QueryStat stat :
         {QueryStat::kRetries, QueryStat::kFailovers, QueryStat::kTimeouts,
          QueryStat::kReplans, QueryStat::kCheckpointRestores}) {
      EXPECT_EQ(m->profile[stat], 0) << QueryStatName(stat);
    }
  }
  EXPECT_EQ(cluster_->transport()->faults_injected(), 0);
}

TEST_F(FederationTest, RepeatedCrossServerJoinHitsThePlanCache) {
  // Temps are named by plan position, so the second run ships the same
  // fragment wires — every fragment travels as a cache reference — and the
  // plan bytes do not depend on the thread budget.
  PlanPtr join = Plan::Join(
      Plan::Scan("orders"),
      Plan::Unbox(Plan::Regrid(Plan::Scan("M"), {{"i", 4}, {"k", 16}},
                               AggFunc::kSum)),
      JoinType::kInner, {"sensor"}, {"i"});
  int64_t plan_bytes[2][2];
  for (int t = 0; t < 2; ++t) {
    CoordinatorOptions opts;
    opts.thread_count = t == 0 ? 1 : 4;
    Coordinator coord(cluster_.get(), opts);
    ExecutionMetrics m;  // reused: every field covers the latest call only
    std::map<std::string, int64_t> placed;
    for (int run = 0; run < 2; ++run) {
      ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(join, &m));
      EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(join)));
      ASSERT_GT(m.profile[QueryStat::kFragments], 1);
      plan_bytes[t][run] = m.profile[QueryStat::kPlanBytes];
      if (run == 0) {
        placed = m.nodes_per_server;
      } else {
        EXPECT_EQ(m.nodes_per_server, placed);
        EXPECT_EQ(m.profile[QueryStat::kPlanCacheMisses], 0);
        EXPECT_EQ(m.profile[QueryStat::kPlanCacheHits],
                  m.profile[QueryStat::kFragments]);
      }
    }
  }
  EXPECT_LT(plan_bytes[0][1], plan_bytes[0][0]);
  EXPECT_EQ(plan_bytes[0][0], plan_bytes[1][0]);
  EXPECT_EQ(plan_bytes[0][1], plan_bytes[1][1]);
}

TEST_F(FederationTest, RetriesRideOutMessageDrops) {
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.05;
  f.seed = 9;  // a seed whose early draws do lose messages at p = 0.05
  cluster_->transport()->SetFaultOptions(f);

  CoordinatorOptions opts;
  opts.retry.max_attempts = 8;
  Coordinator coord(cluster_.get(), opts);

  // The fixture's representative queries, all under a lossy network.
  std::vector<PlanPtr> queries;
  queries.push_back(Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))),
      {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}}));
  queries.push_back(Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod"));
  queries.push_back(Plan::Join(
      Plan::Scan("orders"),
      Plan::Unbox(Plan::Regrid(Plan::Scan("M"), {{"i", 4}, {"k", 16}},
                               AggFunc::kSum)),
      JoinType::kInner, {"sensor"}, {"i"}));

  int64_t total_retries = 0;
  for (const PlanPtr& q : queries) {
    ExecutionMetrics m;
    ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(q, &m));
    EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(q)));
    total_retries += m.profile[QueryStat::kRetries];
  }
  EXPECT_GT(total_retries, 0);
  EXPECT_GT(cluster_->transport()->faults_injected(), 0);
  EXPECT_GT(cluster_->transport()->failed_messages(), 0);
}

TEST_F(FederationTest, FailoverReplansToReplicaHolder) {
  // orders lives on relstore; replicate it so a second holder exists, then
  // script relstore down for far longer than the retry budget.
  ASSERT_OK(cluster_->Replicate("orders", "reference"));
  FaultOptions f;
  f.enabled = true;
  f.down_windows = {{"relstore", 0.0, 30.0}};
  cluster_->transport()->SetFaultOptions(f);

  Coordinator coord(cluster_.get());
  PlanPtr p = Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))),
      {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(p, &m));
  EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(p)));
  // the ship to relstore was retried first
  EXPECT_GT(m.profile[QueryStat::kRetries], 0);
  // then relstore was written off
  EXPECT_GE(m.profile[QueryStat::kFailovers], 1);
  // and the plan re-placed on the replica
  EXPECT_GE(m.profile[QueryStat::kReplans], 1);
  EXPECT_EQ(m.profile[QueryStat::kCheckpointRestores], 0);
}

TEST_F(FederationTest, FailoverRerunOnSecondServerLeavesNoTemps) {
  // relstore goes down just after the plan message reaches it: the fragment
  // runs there and registers its temp, the fetch back fails, and the re-run
  // executes the same node on the replica under the same positional name.
  ASSERT_OK(cluster_->Replicate("orders", "reference"));
  const double now = cluster_->transport()->simulated_seconds();
  FaultOptions f;
  f.enabled = true;
  f.down_windows = {{"relstore", now + 1e-9, now + 30.0}};
  cluster_->transport()->SetFaultOptions(f);
  Coordinator coord(cluster_.get());
  PlanPtr p = Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))),
      {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(p, &m));
  EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(p)));
  EXPECT_GE(m.profile[QueryStat::kFailovers], 1);
  EXPECT_EQ(m.profile[QueryStat::kFragments], 2);  // once on each server
  for (const std::string& s : cluster_->ServerNames()) {
    for (const std::string& name : cluster_->provider(s)->catalog()->Names()) {
      EXPECT_TRUE(name.find("__frag_") == std::string::npos)
          << "leftover temp " << name << " on " << s;
    }
  }
}

// One Coordinator serves calls from many threads at once with no namespace
// set anywhere: each running call leases its own temp namespace from the
// cluster, so concurrent calls' temps and loop bindings never collide.
TEST_F(FederationTest, OneCoordinatorServesConcurrentCalls) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(cluster_->PutData("relstore", "state0",
                              Dataset(MakeTable(s, {{F(1024.0)}}))));
  IterateOp op;
  op.body = Plan::Rename(
      Plan::Project(
          Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
          {"h"}),
      {{"h", "v"}});
  op.max_iters = 8;
  const std::vector<PlanPtr> queries = {
      Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod"),
      Plan::Iterate(Plan::Scan("state0"), op)};
  CoordinatorOptions opts;
  // Client-driven: the loop makes temps and ships per-round bindings.
  opts.provider_side_iteration = false;
  Coordinator coord(cluster_.get(), opts);
  std::vector<TablePtr> want;
  for (const PlanPtr& q : queries) {
    ASSERT_OK_AND_ASSIGN(Dataset d, coord.Execute(q));
    ASSERT_OK_AND_ASSIGN(TablePtr t, d.AsTable());
    want.push_back(std::move(t));
  }

  constexpr int kClients = 6;
  constexpr int kRounds = 4;
  std::vector<std::vector<Result<TablePtr>>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        for (const PlanPtr& q : queries) {
          Result<Dataset> d = coord.Execute(q);
          got[c].push_back(d.ok() ? d.ValueOrDie().AsTable()
                                  : Result<TablePtr>(d.status()));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), kRounds * queries.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      ASSERT_OK(got[c][i].status());
      ExpectSameBits(*got[c][i].ValueOrDie(), *want[i % queries.size()]);
    }
  }
  ExpectNoTemps();
}

// The caller's TaskContext carries the cancel token and the deadline into a
// direct Execute, as the service's does.
TEST_F(FederationTest, ExecuteStopsOnTheCallersCancelledToken) {
  Coordinator coord(cluster_.get());
  PlanPtr mm = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod");
  CancelToken token;
  token.Cancel(StatusCode::kCancelled, "cancelled before the call");
  TaskContext ctx;
  ctx.cancel = &token;
  {
    ScopedTaskContext scoped(&ctx);
    Status st = coord.Execute(mm).status();
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  }
  ExpectNoTemps();
  EXPECT_OK(coord.Execute(mm).status());  // outside the context it runs
}

TEST_F(FederationTest, ExecutePastTheCallersDeadlineTimesOutAndFiresToken) {
  Coordinator coord(cluster_.get());
  PlanPtr mm = Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod");
  cluster_->transport()->AdvanceTime(1.0);
  CancelToken token;
  TaskContext ctx;
  ctx.cancel = &token;
  ctx.deadline_simulated_seconds =
      cluster_->transport()->simulated_seconds() - 0.5;
  {
    ScopedTaskContext scoped(&ctx);
    Status st = coord.Execute(mm).status();
    EXPECT_TRUE(st.IsTimeout()) << st;
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsTimeout()) << token.status();
  ExpectNoTemps();
  EXPECT_OK(coord.Execute(mm).status());  // outside the context it runs
}

TEST_F(FederationTest, FailoverImpossibleWithoutReplicaFailsRetryably) {
  // No replica: once relstore is excluded, no holder of orders remains.
  FaultOptions f;
  f.enabled = true;
  f.down_windows = {{"relstore", 0.0, 30.0}};
  cluster_->transport()->SetFaultOptions(f);
  Coordinator coord(cluster_.get());
  ExecutionMetrics m;
  auto r = coord.Execute(Plan::Scan("orders"), &m);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsRetryable(r.status())) << r.status();
  EXPECT_GT(m.profile[QueryStat::kRetries], 0);
  // The failed execution must not leak temps anywhere (RAII guard).
  for (const std::string& s : cluster_->ServerNames()) {
    for (const std::string& name : cluster_->provider(s)->catalog()->Names()) {
      EXPECT_TRUE(name.find("__frag_") == std::string::npos)
          << "leftover temp " << name << " on " << s;
    }
  }
}

TEST_F(FederationTest, FragmentTimeoutBudgetCutsRetriesShort) {
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 1.0;  // nothing ever arrives
  cluster_->transport()->SetFaultOptions(f);
  CoordinatorOptions opts;
  opts.retry.max_attempts = 100;
  opts.retry.initial_backoff_seconds = 0.01;
  opts.retry.fragment_timeout_seconds = 0.05;  // budget < the retry ladder
  Coordinator coord(cluster_.get(), opts);
  ExecutionMetrics m;
  auto r = coord.Execute(Plan::Scan("orders"), &m);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsRetryable(r.status()));
  EXPECT_GE(m.profile[QueryStat::kTimeouts], 1);
  // the budget fired long before max_attempts
  EXPECT_LT(m.profile[QueryStat::kRetries], 100);
}

TEST_F(FederationTest, ClientLoopResumesFromCheckpointAfterMidLoopFailure) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(cluster_->PutData("relstore", "state0",
                              Dataset(MakeTable(s, {{F(1024.0)}}))));
  IterateOp op;
  op.body = Plan::Rename(
      Plan::Project(
          Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
          {"h"}),
      {{"h", "v"}});
  op.max_iters = 8;
  PlanPtr it = Plan::Iterate(Plan::Scan("state0"), op);

  // relstore hosts the loop bodies until it dies mid-loop. Messages land at
  // ~1 ms spacing, so a window opening at 9 ms kills the loop a few
  // iterations in — mid-checkpoint-interval, since checkpoints are 6 apart.
  FaultOptions f;
  f.enabled = true;
  f.down_windows = {{"relstore", 0.009, 60.0}};
  cluster_->transport()->SetFaultOptions(f);

  CoordinatorOptions opts;
  opts.provider_side_iteration = false;  // force the client-driven loop
  opts.retry.checkpoint_every = 6;
  Coordinator coord(cluster_.get(), opts);
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(it, &m));
  ASSERT_OK_AND_ASSIGN(TablePtr t, got.AsTable());
  EXPECT_EQ(t->At(0, 0), F(4.0));  // 1024 / 2^8 despite the mid-loop death
  EXPECT_GE(m.profile[QueryStat::kCheckpointRestores], 1);
  EXPECT_GE(m.profile[QueryStat::kFailovers], 1);
  // The rewind re-ran the iterations between the checkpoint and the death.
  EXPECT_GT(m.profile[QueryStat::kClientLoopIterations], 8);
}

TEST_F(FederationTest, DownWindowPlusDropsAcceptance) {
  // The acceptance scenario: 5% drops plus one scripted server-down window;
  // every query still completes with correct results and the metrics show
  // the machinery working.
  ASSERT_OK(cluster_->Replicate("orders", "reference"));
  FaultOptions f;
  f.enabled = true;
  f.drop_probability = 0.05;
  f.seed = 21;  // early draws include a drop at p = 0.05
  f.down_windows = {{"relstore", 0.0, 10.0}};
  cluster_->transport()->SetFaultOptions(f);

  CoordinatorOptions opts;
  opts.retry.max_attempts = 8;
  Coordinator coord(cluster_.get(), opts);

  std::vector<PlanPtr> queries;
  queries.push_back(Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))),
      {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}}));
  queries.push_back(Plan::MatMul(Plan::Scan("M"), Plan::Scan("N"), "prod"));
  PageRankOp pr;
  queries.push_back(Plan::PageRank(Plan::Scan("edges"), pr));

  int64_t retries = 0, failovers = 0;
  for (const PlanPtr& q : queries) {
    ExecutionMetrics m;
    ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(q, &m));
    EXPECT_TRUE(got.LogicallyEquals(ReferenceResult(q)));
    retries += m.profile[QueryStat::kRetries];
    failovers += m.profile[QueryStat::kFailovers];
  }
  EXPECT_GT(retries, 0);
  EXPECT_GE(failovers, 1);
}

// --- Binary wire format + plan-fingerprint cache (E13) ---------------------

TEST_F(FederationTest, BinaryWireMatchesTextResultsAndMovesFewerBytes) {
  PlanPtr q = Plan::Join(
      Plan::Scan("orders"),
      Plan::Unbox(Plan::Regrid(Plan::Scan("M"), {{"i", 4}, {"k", 16}},
                               AggFunc::kSum)),
      JoinType::kInner, {"sensor"}, {"i"});

  // Text arm: every server marked text-only, so every link negotiates text;
  // then each server's own advertisement is restored.
  for (const std::string& s : cluster_->ServerNames()) {
    cluster_->transport()->SetNodeBinaryCapable(s, false);
  }
  Coordinator text_coord(cluster_.get());
  ExecutionMetrics text_m;
  Result<Dataset> text_r = text_coord.Execute(q, &text_m);
  for (const std::string& s : cluster_->ServerNames()) {
    cluster_->transport()->SetNodeBinaryCapable(
        s, cluster_->provider(s)->AcceptsBinaryWire());
  }
  ASSERT_OK(text_r.status());

  Coordinator bin_coord(cluster_.get());
  ExecutionMetrics bin_m;
  ASSERT_OK_AND_ASSIGN(Dataset bin_d, bin_coord.Execute(q, &bin_m));

  // Value identity across formats, against each other and the reference.
  EXPECT_TRUE(bin_d.LogicallyEquals(text_r.ValueOrDie()));
  EXPECT_TRUE(bin_d.LogicallyEquals(ReferenceResult(q)));
  // Same conversation shape, smaller payloads.
  EXPECT_EQ(bin_m.profile[QueryStat::kMessages],
            text_m.profile[QueryStat::kMessages]);
  EXPECT_LT(bin_m.profile[QueryStat::kBytes],
            text_m.profile[QueryStat::kBytes]);
}

TEST_F(FederationTest, TextOnlyPeerNegotiatesFallbackAndStillAnswers) {
  auto cluster = std::make_unique<Cluster>();
  ASSERT_OK(cluster->AddServer("modern", MakeRelationalProvider()));
  ASSERT_OK(cluster->AddServer(
      "legacy", MakeReferenceProvider(/*text_only=*/true)));
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64),
                            Field::Attr("y", DataType::kFloat64)});
  TablePtr t = MakeTable(s, {{I(1), F(2.0)}, {I(2), F(4.0)}, {I(3), F(8.0)}});
  ASSERT_OK(cluster->PutData("legacy", "t", Dataset(t)));

  EXPECT_EQ(cluster->transport()->NegotiatedFormat("legacy", kClientNode),
            WireFormat::kText);
  EXPECT_EQ(cluster->transport()->NegotiatedFormat("modern", kClientNode),
            WireFormat::kBinary);

  Coordinator coord(cluster.get());
  PlanPtr q = Plan::Aggregate(Plan::Scan("t"), {},
                              {AggSpec{AggFunc::kSum, Col("y"), "total"}});
  ASSERT_OK_AND_ASSIGN(Dataset d, coord.Execute(q));
  ASSERT_EQ(d.table()->num_rows(), 1);
  ASSERT_OK_AND_ASSIGN(const Column* total, d.table()->ColumnByName("total"));
  EXPECT_DOUBLE_EQ(total->GetValue(0).AsDouble(), 14.0);

  // The EXPLAIN ANALYZE plan-cache trailer names no format: formats are
  // chosen per link, and this query used text to the legacy peer.
  ASSERT_OK_AND_ASSIGN(std::string report, coord.ExplainAnalyze(q));
  std::string line = testing::ProfileLine(report, "provider");
  ASSERT_GT(testing::ProfileValue(line, "plan_cache_hit") +
                testing::ProfileValue(line, "plan_cache_miss"),
            0)
      << report;
  EXPECT_EQ(line.find("binary"), std::string::npos) << line;
  EXPECT_EQ(line.find("text"), std::string::npos) << line;
}

TEST_F(FederationTest, RepeatedExecuteHitsProviderPlanCache) {
  PlanPtr q = Plan::Aggregate(
      Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(50.0))),
      {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}});

  Coordinator coord(cluster_.get());
  ExecutionMetrics m1, m2;
  ASSERT_OK_AND_ASSIGN(Dataset d1, coord.Execute(q, &m1));
  ASSERT_OK_AND_ASSIGN(Dataset d2, coord.Execute(q, &m2));
  EXPECT_TRUE(d1.LogicallyEquals(d2));

  // First execution ships the full plan (a cache miss on the provider);
  // the second sends a fixed-size fingerprint reference.
  EXPECT_EQ(m1.profile[QueryStat::kPlanCacheHits], 0);
  EXPECT_GE(m1.profile[QueryStat::kPlanCacheMisses], 1);
  EXPECT_GE(m2.profile[QueryStat::kPlanCacheHits], 1);
  EXPECT_GT(m2.profile[QueryStat::kWireBytesSaved], 0);
  EXPECT_LT(m2.profile[QueryStat::kPlanBytes],
            m1.profile[QueryStat::kPlanBytes]);

  // With the cache off, repeat executions keep re-shipping the full plan.
  CoordinatorOptions off;
  off.plan_cache = false;
  Coordinator cold(cluster_.get(), off);
  ExecutionMetrics c1, c2;
  ASSERT_OK(cold.Execute(q, &c1).status());
  ASSERT_OK(cold.Execute(q, &c2).status());
  EXPECT_EQ(c1.profile[QueryStat::kPlanCacheHits], 0);
  EXPECT_EQ(c2.profile[QueryStat::kPlanCacheHits], 0);
  EXPECT_EQ(c2.profile[QueryStat::kPlanBytes],
            c1.profile[QueryStat::kPlanBytes]);
}

TEST_F(FederationTest, ClientLoopShipsBodyOnceAndBindingsPerRound) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  ASSERT_OK(cluster_->PutData("relstore", "state0",
                              Dataset(MakeTable(s, {{F(1024.0)}}))));
  IterateOp op;
  op.body = Plan::Rename(
      Plan::Project(
          Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
          {"h"}),
      {{"h", "v"}});
  op.max_iters = 8;
  PlanPtr it = Plan::Iterate(Plan::Scan("state0"), op);

  CoordinatorOptions cached;
  cached.provider_side_iteration = false;
  cached.plan_cache = true;
  Coordinator hot(cluster_.get(), cached);
  ExecutionMetrics hot_m;
  ASSERT_OK_AND_ASSIGN(Dataset hot_d, hot.Execute(it, &hot_m));

  CoordinatorOptions uncached = cached;
  uncached.plan_cache = false;
  Coordinator cold(cluster_.get(), uncached);
  ExecutionMetrics cold_m;
  ASSERT_OK_AND_ASSIGN(Dataset cold_d, cold.Execute(it, &cold_m));

  // Identical fixpoint either way: 1024 / 2^8 = 4.
  EXPECT_TRUE(hot_d.LogicallyEquals(cold_d));
  ASSERT_OK_AND_ASSIGN(const Column* vc, hot_d.table()->ColumnByName("v"));
  EXPECT_DOUBLE_EQ(vc->GetValue(0).AsDouble(), 4.0);

  // The body template travels once; rounds 2..8 hit the provider cache.
  EXPECT_GE(hot_m.profile[QueryStat::kPlanCacheHits], op.max_iters - 1);
  EXPECT_EQ(cold_m.profile[QueryStat::kPlanCacheHits], 0);
  EXPECT_LT(hot_m.profile[QueryStat::kPlanBytes],
            cold_m.profile[QueryStat::kPlanBytes]);
  // Same loop, same conversation shape: only payload contents changed.
  EXPECT_EQ(hot_m.profile[QueryStat::kMessages],
            cold_m.profile[QueryStat::kMessages]);

  // The cache shows up in the human-readable execution report.
  ASSERT_OK_AND_ASSIGN(std::string report, hot.ExplainAnalyze(it));
  std::string line = testing::ProfileLine(report, "provider");
  EXPECT_GT(testing::ProfileValue(line, "plan_cache_hit") +
                testing::ProfileValue(line, "plan_cache_miss"),
            0)
      << report;
}

// Chaos determinism: the fault model draws once per message, so identical
// conversations must yield identical fault decisions regardless of wire
// format or plan caching. Each arm gets a fresh, identically seeded cluster
// because the fault RNG advances with every message ever sent through it.
class WireChaosTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Cluster> BuildCluster() {
    auto cluster = std::make_unique<Cluster>();
    EXPECT_OK(cluster->AddServer("relstore", MakeRelationalProvider()));
    EXPECT_OK(cluster->AddServer("reference", MakeReferenceProvider()));
    Rng rng(3);
    SchemaPtr orders = MakeSchema({Field::Attr("sensor", DataType::kInt64),
                                   Field::Attr("amount", DataType::kFloat64)});
    TableBuilder ob(orders);
    for (int64_t i = 0; i < 120; ++i) {
      EXPECT_OK(
          ob.AppendRow({I(rng.NextInt(0, 9)), F(rng.NextDouble(0, 100))}));
    }
    EXPECT_OK(cluster->PutData("relstore", "orders",
                               Dataset(ob.Finish().ValueOrDie())));
    SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
    EXPECT_OK(cluster->PutData("relstore", "state0",
                               Dataset(MakeTable(s, {{F(512.0)}}))));
    return cluster;
  }

  // Runs the same lossy workload and returns the fault decision sequence:
  // (what, from, to) only — payload sizes legitimately differ across arms.
  static std::vector<std::string> RunArm(WireFormat format, bool plan_cache) {
    std::unique_ptr<Cluster> cluster = BuildCluster();
    if (format == WireFormat::kText) {
      for (const std::string& s : cluster->ServerNames()) {
        cluster->transport()->SetNodeBinaryCapable(s, false);
      }
    }
    FaultOptions f;
    f.enabled = true;
    f.drop_probability = 0.08;
    f.latency_spike_probability = 0.1;
    f.seed = 11;
    cluster->transport()->SetFaultOptions(f);

    CoordinatorOptions opts;
    opts.thread_count = 1;  // sequential dispatch, reproducible trace
    opts.plan_cache = plan_cache;
    opts.provider_side_iteration = false;
    opts.retry.max_attempts = 10;
    Coordinator coord(cluster.get(), opts);

    PlanPtr agg = Plan::Aggregate(
        Plan::Select(Plan::Scan("orders"), Gt(Col("amount"), Lit(25.0))),
        {"sensor"}, {AggSpec{AggFunc::kSum, Col("amount"), "total"}});
    IterateOp op;
    op.body = Plan::Rename(
        Plan::Project(
            Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
            {"h"}),
        {{"h", "v"}});
    op.max_iters = 6;
    PlanPtr loop = Plan::Iterate(Plan::Scan("state0"), op);

    EXPECT_OK(coord.Execute(agg).status());
    EXPECT_OK(coord.Execute(agg).status());  // cached arm sends EXEC refs here
    EXPECT_OK(coord.Execute(loop).status());

    std::vector<std::string> decisions;
    for (const FaultEvent& e : cluster->transport()->fault_log()) {
      decisions.push_back(e.what + " " + e.from + "->" + e.to);
    }
    return decisions;
  }
};

TEST_F(WireChaosTest, FaultDecisionsInvariantAcrossWireFormatAndCache) {
  std::vector<std::string> base = RunArm(WireFormat::kBinary, true);
  EXPECT_FALSE(base.empty());  // the arm must actually exercise faults
  EXPECT_EQ(RunArm(WireFormat::kText, true), base);
  EXPECT_EQ(RunArm(WireFormat::kBinary, false), base);
  EXPECT_EQ(RunArm(WireFormat::kText, false), base);
}

}  // namespace
}  // namespace nexus
