// End-to-end integration tests: BDL text in → optimizer → federated
// placement → multi-engine execution → collection out, plus full-stack
// scenarios mirroring the examples.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/expansion.h"
#include "core/serialize.h"
#include "exec/reference_executor.h"
#include "federation/coordinator.h"
#include "frontend/bdl.h"
#include "frontend/query.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::S;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    ASSERT_OK(cluster_->AddServer("relstore", MakeRelationalProvider()));
    ASSERT_OK(cluster_->AddServer("arraydb", MakeArrayProvider()));
    ASSERT_OK(cluster_->AddServer("linalg", MakeLinalgProvider()));
    ASSERT_OK(cluster_->AddServer("graphd", MakeGraphProvider()));
    ASSERT_OK(cluster_->AddServer("reference", MakeReferenceProvider()));

    Rng rng(555);
    // Sensor grid on the array server.
    SchemaPtr grid = MakeSchema({Field::Dim("t"), Field::Dim("s"),
                                 Field::Attr("temp", DataType::kFloat64)});
    TableBuilder gb(grid);
    for (int64_t t = 0; t < 32; ++t) {
      for (int64_t s = 0; s < 16; ++s) {
        ASSERT_OK(gb.AppendRow(
            {I(t), I(s), F(static_cast<double>(rng.NextInt(10, 30)))}));
      }
    }
    grid_table_ = gb.Finish().ValueOrDie();
    ASSERT_OK(cluster_->PutData("arraydb", "readings", Dataset(grid_table_)));

    // Metadata on the relational server.
    SchemaPtr meta = MakeSchema({Field::Attr("sid", DataType::kInt64),
                                 Field::Attr("zone", DataType::kString)});
    TableBuilder mb(meta);
    for (int64_t s = 0; s < 16; ++s) {
      ASSERT_OK(mb.AppendRow({I(s), S(s % 2 == 0 ? "east" : "west")}));
    }
    meta_table_ = mb.Finish().ValueOrDie();
    ASSERT_OK(cluster_->PutData("relstore", "sensors", Dataset(meta_table_)));
  }

  Dataset ReferenceResult(const PlanPtr& plan) {
    InMemoryCatalog cat;
    EXPECT_OK(cat.Put("readings", Dataset(grid_table_)));
    EXPECT_OK(cat.Put("sensors", Dataset(meta_table_)));
    ReferenceExecutor exec(&cat);
    auto r = exec.Execute(*plan);
    EXPECT_OK(r.status());
    return r.ValueOrDie();
  }

  std::unique_ptr<Cluster> cluster_;
  TablePtr grid_table_, meta_table_;
};

TEST_F(IntegrationTest, BdlToFederatedExecution) {
  // Text in, multi-engine execution, collection out.
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, ParseBdl(R"(
      from readings
      window t 1 using avg
      regrid t/8 using avg
      unbox
      join sensors on s = sid
      group by zone, t aggregate avg(temp) as z
      sort by zone, t
  )"));
  Coordinator coord(cluster_.get());
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(plan, &m));
  // Same pipeline on a single local catalog must agree.
  Dataset want = ReferenceResult(plan);
  EXPECT_TRUE(got.LogicallyEquals(want));
  // The work genuinely spanned both engines.
  EXPECT_GE(m.nodes_per_server["arraydb"], 2);
  EXPECT_GE(m.nodes_per_server["relstore"], 2);
}

TEST_F(IntegrationTest, OptimizedFederatedAgreesWithUnoptimized) {
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, ParseBdl(R"(
      from readings
      unbox
      join sensors on s = sid
      where temp > 15.0 and zone == "east"
      group by s aggregate count(*) as n, max(temp) as peak
  )"));
  CoordinatorOptions with_opt;
  Coordinator c1(cluster_.get(), with_opt);
  CoordinatorOptions no_opt;
  no_opt.optimize = false;
  Coordinator c2(cluster_.get(), no_opt);
  ASSERT_OK_AND_ASSIGN(Dataset a, c1.Execute(plan));
  ASSERT_OK_AND_ASSIGN(Dataset b, c2.Execute(plan));
  EXPECT_TRUE(a.LogicallyEquals(b));
}

TEST_F(IntegrationTest, RecognizedIntentRunsOnSpecialistEndToEnd) {
  // Matrices stored on relstore; hand-written matmul pipeline; with
  // recognition the planner must route the core to linalg.
  Rng rng(77);
  SchemaPtr ms = MakeSchema({Field::Dim("i"), Field::Dim("k"),
                             Field::Attr("a", DataType::kFloat64)});
  SchemaPtr ms2 = MakeSchema({Field::Dim("k"), Field::Dim("j"),
                              Field::Attr("b", DataType::kFloat64)});
  TableBuilder ab(ms), bb(ms2);
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_OK(ab.AppendRow({I(i), I(k), F(static_cast<double>(rng.NextInt(1, 5)))}));
      ASSERT_OK(bb.AppendRow({I(i), I(k), F(static_cast<double>(rng.NextInt(1, 5)))}));
    }
  }
  ASSERT_OK(cluster_->PutData("relstore", "MA", Dataset(ab.Finish().ValueOrDie())));
  ASSERT_OK(cluster_->PutData("relstore", "MB", Dataset(bb.Finish().ValueOrDie())));

  PlanPtr right = Plan::Rename(Plan::Scan("MB"),
                               {{"k", "k2"}, {"j", "j2"}, {"b", "bv"}});
  PlanPtr pipeline = Plan::Select(
      Plan::Aggregate(
          Plan::Extend(Plan::Join(Plan::Scan("MA"), right, JoinType::kInner,
                                  {"k"}, {"k2"}),
                       {{"p", Mul(Col("a"), Col("bv"))}}),
          {"i", "j2"}, {AggSpec{AggFunc::kSum, Col("p"), "c"}}),
      Ne(Col("c"), Lit(0)));

  Coordinator coord(cluster_.get());
  ASSERT_OK_AND_ASSIGN(std::string explain, coord.ExplainPlacement(pipeline));
  EXPECT_NE(explain.find("matmul"), std::string::npos) << explain;
  EXPECT_NE(explain.find("@linalg"), std::string::npos) << explain;

  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset got, coord.Execute(pipeline, &m));
  // Compare against the unrecognized relational execution.
  CoordinatorOptions off;
  off.optimizer.recognize_intent = false;
  Coordinator plain(cluster_.get(), off);
  ASSERT_OK_AND_ASSIGN(Dataset want, plain.Execute(pipeline));
  EXPECT_TRUE(got.LogicallyEquals(want));
  EXPECT_GE(m.nodes_per_server["linalg"], 1);
}

TEST_F(IntegrationTest, WireFormatCarriesWholeFederatedPlan) {
  // Serialize a mixed plan, parse it back, run both: identical results.
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, ParseBdl(R"(
      from readings
      slice t 0 16
      regrid t/4, s/4 using max
      unbox
  )"));
  ASSERT_OK_AND_ASSIGN(PlanPtr reparsed, ParsePlan(SerializePlan(*plan)));
  Coordinator coord(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset a, coord.Execute(plan));
  ASSERT_OK_AND_ASSIGN(Dataset b, coord.Execute(reparsed));
  EXPECT_TRUE(a.LogicallyEquals(b));
}

TEST_F(IntegrationTest, FluentIterateFederatedConvergence) {
  // Heat diffusion: state halves toward the mean each step; run the loop
  // provider-side via the fluent API.
  SchemaPtr s = MakeSchema({Field::Dim("i"), Field::Attr("v", DataType::kFloat64)});
  TablePtr state0 = MakeTable(
      s, {{I(0), F(100.0)}, {I(1), F(0.0)}, {I(2), F(50.0)}, {I(3), F(10.0)}});
  ASSERT_OK(cluster_->PutData("relstore", "heat0", Dataset(state0)));

  Query body = Query::Loop()
                   .Let("nv", Mul(Col("v"), Lit(0.5)))
                   .SelectCols({"i", "nv"})
                   .Rename({{"nv", "v"}})
                   .AsArray({"i"});
  Query measure = Query::Loop()
                      .Aggregate({Sum(Col("v"), "total")})
                      .Let("d", Col("total"))
                      .SelectCols({"d"});
  Query loop = Query::From("heat0").IterateUntil(body, 50, &measure, 1.0);
  Coordinator coord(cluster_.get());
  ExecutionMetrics m;
  ASSERT_OK_AND_ASSIGN(Dataset result, coord.Execute(loop.plan(), &m));
  ASSERT_OK_AND_ASSIGN(TablePtr t, result.AsTable());
  double total = 0;
  for (int64_t r = 0; r < t->num_rows(); ++r) total += t->At(r, 1).AsDouble();
  EXPECT_LT(total, 1.0);        // converged below epsilon
  // provider-side: one plan, one result
  EXPECT_EQ(m.profile[QueryStat::kMessages], 2);
}

TEST_F(IntegrationTest, PageRankEndToEndViaBdl) {
  Rng rng(31);
  SchemaPtr es = MakeSchema({Field::Attr("u", DataType::kInt64),
                             Field::Attr("w", DataType::kInt64)});
  TableBuilder eb(es);
  for (int64_t e = 0; e < 80; ++e) {
    ASSERT_OK(eb.AppendRow({I(rng.NextInt(0, 19)), I(rng.NextInt(0, 19))}));
  }
  ASSERT_OK(cluster_->PutData("graphd", "links", Dataset(eb.Finish().ValueOrDie())));
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, ParseBdl(
      "from links | pagerank u w iters 80 eps 1e-12"));
  Coordinator coord(cluster_.get());
  ASSERT_OK_AND_ASSIGN(Dataset ranks, coord.Execute(plan));
  ASSERT_OK_AND_ASSIGN(TablePtr t, ranks.AsTable());
  double total = 0;
  for (int64_t r = 0; r < t->num_rows(); ++r) total += t->At(r, 1).AsDouble();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace nexus
