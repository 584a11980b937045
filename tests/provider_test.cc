// Provider-level differential tests: every provider must produce the same
// logical result as the reference provider on any plan it claims —
// including intent ops claimed via expansion (relstore) and natively
// (linalg, graphd). This is desideratum 2's executable statement.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "core/expansion.h"
#include "core/schema_inference.h"
#include "core/serialize.h"
#include "core/wire_format.h"
#include "exec/incremental/view.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "expr/bytecode.h"
#include "federation/cluster.h"
#include "federation/coordinator.h"
#include "provider/provider.h"
#include "relational/engine.h"
#include "telemetry/explain.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;

// Random sparse matrix as a dimension-tagged table.
TablePtr RandomMatrixTable(Rng* rng, int64_t rows, int64_t cols, double density,
                           const std::string& rname, const std::string& cname) {
  SchemaPtr s = MakeSchema({Field::Dim(rname), Field::Dim(cname),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng->NextBool(density)) {
        // Integer-valued doubles keep sums exact across execution orders.
        EXPECT_OK(b.AppendRow(
            {I(r), I(c), F(static_cast<double>(rng->NextInt(1, 9)))}));
      }
    }
  }
  return b.Finish().ValueOrDie();
}

TablePtr RandomEdgeTable(Rng* rng, int64_t nodes, int64_t edges) {
  SchemaPtr s = MakeSchema({Field::Attr("src", DataType::kInt64),
                            Field::Attr("dst", DataType::kInt64)});
  TableBuilder b(s);
  for (int64_t e = 0; e < edges; ++e) {
    EXPECT_OK(b.AppendRow({I(rng->NextInt(0, nodes - 1)),
                           I(rng->NextInt(0, nodes - 1))}));
  }
  return b.Finish().ValueOrDie();
}

class ProviderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(20260704);
    reference_ = MakeReferenceProvider();
    relstore_ = MakeRelationalProvider();
    arraydb_ = MakeArrayProvider();
    linalg_ = MakeLinalgProvider();
    graphd_ = MakeGraphProvider();
    all_ = {reference_, relstore_, arraydb_, linalg_, graphd_};

    TablePtr a = RandomMatrixTable(rng_.get(), 12, 9, 0.5, "i", "k");
    TablePtr b = RandomMatrixTable(rng_.get(), 9, 7, 0.5, "k", "j");
    TablePtr grid = RandomMatrixTable(rng_.get(), 10, 10, 0.6, "x", "y");
    TablePtr edges = RandomEdgeTable(rng_.get(), 30, 120);
    for (const ProviderPtr& p : all_) {
      ASSERT_OK(p->catalog()->Put("A", Dataset(a)));
      ASSERT_OK(p->catalog()->Put("B", Dataset(b)));
      ASSERT_OK(p->catalog()->Put("grid", Dataset(grid)));
      ASSERT_OK(p->catalog()->Put("edges", Dataset(edges)));
    }
  }

  // Runs `plan` on every provider claiming it and checks agreement with the
  // reference result.
  void CheckAgreement(const PlanPtr& plan) {
    ASSERT_OK(InferSchema(*plan, *reference_->catalog()).status());
    auto want = reference_->Execute(*plan);
    ASSERT_OK(want.status());
    int ran = 0;
    for (const ProviderPtr& p : all_) {
      if (p == reference_ || !p->ClaimsTree(*plan)) continue;
      auto got = p->Execute(*plan);
      ASSERT_TRUE(got.ok()) << p->name() << ": " << got.status() << "\n"
                            << plan->ToString();
      EXPECT_TRUE(got.ValueOrDie().LogicallyEquals(want.ValueOrDie()))
          << p->name() << " disagrees with reference on\n"
          << plan->ToString() << "reference rows: " << want.ValueOrDie().num_rows()
          << ", " << p->name() << " rows: " << got.ValueOrDie().num_rows();
      ++ran;
    }
    EXPECT_GE(ran, 1) << "no specialized provider claimed\n" << plan->ToString();
  }

  std::unique_ptr<Rng> rng_;
  ProviderPtr reference_, relstore_, arraydb_, linalg_, graphd_;
  std::vector<ProviderPtr> all_;
};

TEST_F(ProviderTest, ClaimSetsAreDistinct) {
  EXPECT_TRUE(reference_->Claims(OpKind::kWindow));
  EXPECT_FALSE(relstore_->Claims(OpKind::kWindow));
  EXPECT_TRUE(relstore_->Claims(OpKind::kMatMul));  // via expansion
  EXPECT_TRUE(arraydb_->Claims(OpKind::kWindow));
  EXPECT_FALSE(arraydb_->Claims(OpKind::kJoin));
  EXPECT_TRUE(linalg_->Claims(OpKind::kMatMul));
  EXPECT_FALSE(linalg_->Claims(OpKind::kSelect));
  EXPECT_TRUE(graphd_->Claims(OpKind::kPageRank));
  EXPECT_FALSE(graphd_->Claims(OpKind::kJoin));
}

TEST_F(ProviderTest, RelationalPipeline) {
  PlanPtr p = Plan::Scan("grid");
  p = Plan::Select(p, Gt(Col("v"), Lit(2.0)));
  p = Plan::Extend(p, {{"w", Mul(Col("v"), Col("v"))}});
  p = Plan::Aggregate(p, {"x"}, {AggSpec{AggFunc::kSum, Col("w"), "sw"},
                                 AggSpec{AggFunc::kCount, nullptr, "n"}});
  CheckAgreement(p);
}

TEST_F(ProviderTest, ArrayPipeline) {
  PlanPtr p = Plan::Scan("grid");
  p = Plan::Slice(p, {{"x", 1, 9}, {"y", 0, 8}});
  p = Plan::Shift(p, {{"x", 5}});
  p = Plan::Regrid(p, {{"x", 2}, {"y", 2}}, AggFunc::kSum);
  CheckAgreement(p);
}

TEST_F(ProviderTest, WindowOnlyOnArrayProviders) {
  PlanPtr p = Plan::Window(Plan::Scan("grid"), {{"x", 1}, {"y", 1}}, AggFunc::kMax);
  EXPECT_FALSE(relstore_->ClaimsTree(*p));
  EXPECT_TRUE(arraydb_->ClaimsTree(*p));
  CheckAgreement(p);
}

TEST_F(ProviderTest, TransposeEverywhere) {
  CheckAgreement(Plan::Transpose(Plan::Scan("grid"), {"y", "x"}));
}

TEST_F(ProviderTest, ElemWiseAcrossProviders) {
  // Same-shaped grids: intersect occupancy.
  PlanPtr a = Plan::Scan("grid");
  PlanPtr b = Plan::Shift(Plan::Scan("grid"), {{"x", 0}});  // identity shift
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul}) {
    CheckAgreement(Plan::ElemWise(a, b, op));
  }
}

TEST_F(ProviderTest, MatMulNativeAndExpanded) {
  PlanPtr mm = Plan::MatMul(Plan::Scan("A"), Plan::Scan("B"), "prod");
  CheckAgreement(mm);  // linalg (native) and relstore (expansion) vs reference

  // The explicit expansion must also agree.
  ASSERT_OK_AND_ASSIGN(SchemaPtr ls, reference_->catalog()->GetSchema("A"));
  ASSERT_OK_AND_ASSIGN(SchemaPtr rs, reference_->catalog()->GetSchema("B"));
  ASSERT_OK_AND_ASSIGN(
      PlanPtr expanded,
      ExpandMatMul(Plan::Scan("A"), Plan::Scan("B"), MatMulOp{"prod"}, *ls, *rs));
  ASSERT_OK_AND_ASSIGN(SchemaPtr mm_schema,
                       InferSchema(*mm, *reference_->catalog()));
  ASSERT_OK_AND_ASSIGN(SchemaPtr ex_schema,
                       InferSchema(*expanded, *reference_->catalog()));
  EXPECT_TRUE(mm_schema->Equals(*ex_schema))
      << mm_schema->ToString() << " vs " << ex_schema->ToString();
  ASSERT_OK_AND_ASSIGN(Dataset want, reference_->Execute(*mm));
  ASSERT_OK_AND_ASSIGN(Dataset got, reference_->Execute(*expanded));
  EXPECT_TRUE(got.LogicallyEquals(want));
}

TEST_F(ProviderTest, MatMulDenseAndSparsePathsAgree) {
  // Dense occupancy triggers the blocked-GEMM path; sparse the SpGEMM path.
  TablePtr dense_a = RandomMatrixTable(rng_.get(), 20, 20, 0.95, "i", "k");
  TablePtr dense_b = RandomMatrixTable(rng_.get(), 20, 20, 0.95, "k", "j");
  TablePtr sparse_a = RandomMatrixTable(rng_.get(), 20, 20, 0.08, "i", "k");
  TablePtr sparse_b = RandomMatrixTable(rng_.get(), 20, 20, 0.08, "k", "j");
  for (const ProviderPtr& p : all_) {
    ASSERT_OK(p->catalog()->Put("DA", Dataset(dense_a)));
    ASSERT_OK(p->catalog()->Put("DB", Dataset(dense_b)));
    ASSERT_OK(p->catalog()->Put("SA", Dataset(sparse_a)));
    ASSERT_OK(p->catalog()->Put("SB", Dataset(sparse_b)));
  }
  CheckAgreement(Plan::MatMul(Plan::Scan("DA"), Plan::Scan("DB")));
  CheckAgreement(Plan::MatMul(Plan::Scan("SA"), Plan::Scan("SB")));
}

TEST_F(ProviderTest, PageRankNativeMatchesReference) {
  PageRankOp op;
  op.max_iters = 60;
  op.epsilon = 1e-12;
  PlanPtr pr = Plan::PageRank(Plan::Scan("edges"), op);
  ASSERT_OK_AND_ASSIGN(Dataset want, reference_->Execute(*pr));
  ASSERT_OK_AND_ASSIGN(Dataset got, graphd_->Execute(*pr));
  // Float comparison with tolerance: join on node order (both sorted).
  ASSERT_OK_AND_ASSIGN(TablePtr wt, want.AsTable());
  ASSERT_OK_AND_ASSIGN(TablePtr gt, got.AsTable());
  ASSERT_EQ(wt->num_rows(), gt->num_rows());
  for (int64_t r = 0; r < wt->num_rows(); ++r) {
    EXPECT_EQ(wt->At(r, 0), gt->At(r, 0));
    EXPECT_NEAR(wt->At(r, 1).AsDouble(), gt->At(r, 1).AsDouble(), 1e-9);
  }
}

TEST_F(ProviderTest, PageRankExpansionMatchesNative) {
  PageRankOp op;
  op.max_iters = 40;
  op.epsilon = 1e-10;
  // Small graph keeps the relational expansion fast.
  TablePtr edges = RandomEdgeTable(rng_.get(), 12, 40);
  for (const ProviderPtr& p : all_) {
    ASSERT_OK(p->catalog()->Put("small_edges", Dataset(edges)));
  }
  PlanPtr pr = Plan::PageRank(Plan::Scan("small_edges"), op);
  ASSERT_OK_AND_ASSIGN(SchemaPtr es,
                       reference_->catalog()->GetSchema("small_edges"));
  ASSERT_OK_AND_ASSIGN(PlanPtr expanded,
                       ExpandPageRank(Plan::Scan("small_edges"), op, *es));
  // The expansion type-checks to the same schema as the intent op.
  ASSERT_OK_AND_ASSIGN(SchemaPtr s1, InferSchema(*pr, *reference_->catalog()));
  ASSERT_OK_AND_ASSIGN(SchemaPtr s2,
                       InferSchema(*expanded, *reference_->catalog()));
  EXPECT_TRUE(s1->Equals(*s2)) << s1->ToString() << " vs " << s2->ToString();

  ASSERT_OK_AND_ASSIGN(Dataset native, graphd_->Execute(*pr));
  ASSERT_OK_AND_ASSIGN(Dataset expanded_result, reference_->Execute(*expanded));
  ASSERT_OK_AND_ASSIGN(Dataset relstore_result, relstore_->Execute(*pr));
  ASSERT_OK_AND_ASSIGN(TablePtr nt, native.AsTable());
  auto check_close = [&](const Dataset& d) {
    ASSERT_OK_AND_ASSIGN(TablePtr t, d.AsTable());
    ASSERT_EQ(t->num_rows(), nt->num_rows());
    // Both orderings are by node id (graphd emits sorted; expansion order
    // may differ), so sort via map.
    std::map<int64_t, double> got_ranks, want_ranks;
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      got_ranks[t->At(r, 0).AsInt64()] = t->At(r, 1).AsDouble();
      want_ranks[nt->At(r, 0).AsInt64()] = nt->At(r, 1).AsDouble();
    }
    for (const auto& [node, rank] : want_ranks) {
      ASSERT_TRUE(got_ranks.count(node));
      EXPECT_NEAR(got_ranks[node], rank, 1e-8) << "node " << node;
    }
  };
  check_close(expanded_result);
  check_close(relstore_result);
}

TEST_F(ProviderTest, IterateOnRelationalAndArrayProviders) {
  SchemaPtr s = MakeSchema({Field::Dim("i"), Field::Attr("v", DataType::kFloat64)});
  TablePtr state0 = MakeTable(s, {{I(0), F(64.0)}, {I(1), F(16.0)}});
  for (const ProviderPtr& p : all_) {
    ASSERT_OK(p->catalog()->Put("state0", Dataset(state0)));
  }
  IterateOp op;
  op.body = Plan::Rename(
      Plan::Project(
          Plan::Extend(Plan::LoopVar(), {{"h", Div(Col("v"), Lit(2.0))}}),
          {"i", "h"}),
      {{"h", "v"}});
  op.body = Plan::Rebox(op.body, {"i"}, 64);
  op.max_iters = 3;
  PlanPtr it = Plan::Iterate(Plan::Scan("state0"), op);
  CheckAgreement(it);
  ASSERT_OK_AND_ASSIGN(Dataset d, relstore_->Execute(*it));
  ASSERT_OK_AND_ASSIGN(TablePtr t, d.AsTable());
  EXPECT_EQ(t->At(0, 1), F(8.0));
}

// Two sessions running Iterates on one server at once: each Execute keeps
// its own loop frames, so neither sees the other's state (a provider-wide
// loop stack let one query clear or grow the frames under the other).
TEST_F(ProviderTest, ConcurrentIteratesKeepTheirOwnLoopFrames) {
  SchemaPtr s = MakeSchema({Field::Dim("i"), Field::Attr("v", DataType::kFloat64)});
  std::vector<PlanPtr> plans;
  for (int q = 0; q < 2; ++q) {
    std::string name = "loop_state" + std::to_string(q);
    TablePtr state = MakeTable(s, {{I(0), F(10.0 * (q + 1))}, {I(1), F(1.0 + q)}});
    for (const ProviderPtr& p : {relstore_, arraydb_}) {
      ASSERT_OK(p->catalog()->Put(name, Dataset(state)));
    }
    IterateOp op;
    op.body = Plan::Select(Plan::LoopVar(), Ge(Col("v"), Lit(0.0)));
    op.max_iters = 40;
    plans.push_back(Plan::Iterate(Plan::Scan(name), op));
  }
  for (const ProviderPtr& p : {relstore_, arraydb_}) {
    ASSERT_TRUE(p->ClaimsTree(*plans[0])) << p->name();
    std::vector<TablePtr> want;
    for (const PlanPtr& plan : plans) {
      ASSERT_OK_AND_ASSIGN(Dataset d, p->Execute(*plan));
      ASSERT_OK_AND_ASSIGN(TablePtr t, d.AsTable());
      want.push_back(t);
    }
    std::atomic<int> mismatches{0};
    std::vector<std::thread> sessions;
    for (size_t q = 0; q < plans.size(); ++q) {
      sessions.emplace_back([&, q] {
        for (int rep = 0; rep < 100; ++rep) {
          Result<Dataset> d = p->Execute(*plans[q]);
          Result<TablePtr> t = d.ok() ? d.ValueOrDie().AsTable()
                                      : Result<TablePtr>(d.status());
          if (!t.ok() || !t.ValueOrDie()->Equals(*want[q])) ++mismatches;
        }
      });
    }
    for (std::thread& t : sessions) t.join();
    EXPECT_EQ(mismatches.load(), 0) << p->name();
  }
}

TEST_F(ProviderTest, UnclaimedPlanFailsCleanly) {
  PlanPtr join = Plan::Join(Plan::Scan("A"), Plan::Scan("B"), JoinType::kInner,
                            {"k"}, {"k"});
  EXPECT_FALSE(graphd_->ClaimsTree(*join));
  auto st = graphd_->Execute(*join);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.status().IsUnsupported()) << st.status();

  // Every engine refuses a kind it does not claim with the same message,
  // also when Execute is called on it directly with an Iterate.
  IterateOp loop;
  loop.body = Plan::LoopVar();
  loop.max_iters = 2;
  const std::vector<std::pair<ProviderPtr, PlanPtr>> unclaimed = {
      {relstore_, Plan::Window(Plan::Scan("grid"), {{"x", 1}}, AggFunc::kSum)},
      {arraydb_, join},
      {linalg_, Plan::Select(Plan::Scan("A"), Gt(Col("v"), Lit(1.0)))},
      {graphd_, Plan::Iterate(Plan::Scan("edges"), loop)},
  };
  for (const auto& [p, plan] : unclaimed) {
    EXPECT_FALSE(p->ClaimsTree(*plan)) << p->name();
    auto r = p->Execute(*plan);
    ASSERT_FALSE(r.ok()) << p->name();
    EXPECT_TRUE(r.status().IsUnsupported()) << r.status();
    EXPECT_EQ(r.status().message(),
              StrCat(p->name(), " does not implement ", OpKindName(plan->kind())));
  }
}

// The Iterate stop rule needs a one-cell measure. A measure yielding two
// rows is a PlanError wherever the loop runs: inside relstore, inside
// arraydb, and in the coordinator's client-driven loop.
TEST_F(ProviderTest, TwoRowMeasureIsAPlanErrorEverywhere) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  TablePtr state0 = MakeTable(s, {{F(4.0)}, {F(2.0)}});
  IterateOp op;
  op.body = Plan::LoopVar();
  op.measure = Plan::LoopVar(true);
  op.max_iters = 5;
  PlanPtr it = Plan::Iterate(Plan::Scan("state0"), op);
  for (const ProviderPtr& p : {relstore_, arraydb_}) {
    ASSERT_OK(p->catalog()->Put("state0", Dataset(state0)));
    ASSERT_TRUE(p->ClaimsTree(*it)) << p->name();
    auto r = p->Execute(*it);
    ASSERT_FALSE(r.ok()) << p->name();
    EXPECT_TRUE(r.status().IsPlanError()) << p->name() << ": " << r.status();
  }

  // With the plan cache the client-driven loop ships its body once and
  // rebinds the state each round; without it, it re-plans every round.
  op.body = Plan::Select(Plan::LoopVar(), Ge(Col("v"), Lit(0.0)));
  op.measure = Plan::Select(Plan::LoopVar(true), Ge(Col("v"), Lit(0.0)));
  it = Plan::Iterate(Plan::Scan("state0"), op);
  Cluster cluster;
  ASSERT_OK(cluster.AddServer("relstore", MakeRelationalProvider()));
  ASSERT_OK(cluster.PutData("relstore", "state0", Dataset(state0)));
  for (bool plan_cache : {true, false}) {
    CoordinatorOptions client_side;
    client_side.provider_side_iteration = false;
    client_side.plan_cache = plan_cache;
    Coordinator coord(&cluster, client_side);
    ExecutionMetrics m;
    auto r = coord.Execute(it, &m);
    ASSERT_FALSE(r.ok()) << "plan_cache=" << plan_cache;
    EXPECT_TRUE(r.status().IsPlanError()) << r.status();
    EXPECT_EQ(m.profile[QueryStat::kClientLoopIterations], 1);
  }
}

// Two sessions each on one graphd (PageRank) and one linalg (MatMul), all
// four at once: the engines keep no per-call state on the provider, so every
// result is bit-identical to the single-threaded run.
TEST_F(ProviderTest, ConcurrentGraphAndLinalgSessionsMatchSerialRuns) {
  PageRankOp pr;
  pr.max_iters = 30;
  pr.epsilon = 1e-9;
  const std::vector<std::pair<ProviderPtr, PlanPtr>> work = {
      {graphd_, Plan::PageRank(Plan::Scan("edges"), pr)},
      {linalg_, Plan::MatMul(Plan::Scan("A"), Plan::Scan("B"), "prod")},
  };
  std::vector<TablePtr> want;
  for (const auto& [p, plan] : work) {
    ASSERT_OK_AND_ASSIGN(Dataset d, p->Execute(*plan));
    ASSERT_OK_AND_ASSIGN(TablePtr t, d.AsTable());
    want.push_back(t);
  }
  constexpr int kSessions = 2, kReps = 20;
  std::vector<std::vector<Result<TablePtr>>> got(work.size() * kSessions);
  std::vector<std::thread> sessions;
  for (size_t w = 0; w < work.size(); ++w) {
    for (int q = 0; q < kSessions; ++q) {
      sessions.emplace_back([&, w, slot = w * kSessions + q] {
        for (int rep = 0; rep < kReps; ++rep) {
          Result<Dataset> d = work[w].first->Execute(*work[w].second);
          got[slot].push_back(d.ok() ? d.ValueOrDie().AsTable()
                                     : Result<TablePtr>(d.status()));
        }
      });
    }
  }
  for (std::thread& t : sessions) t.join();
  for (size_t slot = 0; slot < got.size(); ++slot) {
    const size_t w = slot / kSessions;
    ASSERT_EQ(got[slot].size(), static_cast<size_t>(kReps));
    for (const Result<TablePtr>& t : got[slot]) {
      ASSERT_OK(t.status());
      testing::ExpectSameBits(*t.ValueOrDie(), *want[w]);
    }
  }
}

// --- Plan-cache envelope protocol -----------------------------------------
//
// The coordinator ships %NXB1-PLAN (full plan, cache it) and later
// %NXB1-EXEC (fingerprint reference). These tests pin the provider half of
// that contract: store-then-exec equivalence, the miss marker for unknown
// fingerprints, binding registration hygiene, and FIFO eviction.

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = MakeReferenceProvider();
    SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64)});
    TablePtr t = MakeTable(s, {{I(1)}, {I(2)}, {I(3)}});
    ASSERT_OK(provider_->catalog()->Put("t", Dataset(t)));
  }

  ProviderPtr provider_;
};

TEST_F(PlanCacheTest, StoreThenExecByFingerprintMatchesDirectExecution) {
  PlanPtr plan = Plan::Limit(Plan::Scan("t"), 2);
  std::string wire = SerializePlanWire(*plan, WireFormat::kBinary);
  uint64_t fp = FingerprintWire(wire);
  ASSERT_NE(fp, 0u);

  ASSERT_OK_AND_ASSIGN(
      Dataset stored,
      provider_->ExecuteWire(
          BuildWireEnvelope(WireEnvelope::Kind::kPlanStore, fp, {}, wire)));
  ASSERT_OK_AND_ASSIGN(
      Dataset cached,
      provider_->ExecuteWire(
          BuildWireEnvelope(WireEnvelope::Kind::kExecCached, fp, {}, "")));
  ASSERT_OK_AND_ASSIGN(Dataset direct, provider_->Execute(*plan));
  EXPECT_TRUE(stored.LogicallyEquals(direct));
  EXPECT_TRUE(cached.LogicallyEquals(direct));
}

TEST_F(PlanCacheTest, UnknownFingerprintIsNotFoundWithMissMarker) {
  Result<Dataset> r = provider_->ExecuteWire(BuildWireEnvelope(
      WireEnvelope::Kind::kExecCached, 0xdeadbeefcafe, {}, ""));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find(kPlanCacheMissMarker),
            std::string::npos)
      << r.status().message();
}

TEST_F(PlanCacheTest, BindingsAreVisibleDuringExecutionAndDroppedAfter) {
  SchemaPtr s = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  Dataset bound(MakeTable(s, {{F(64.0)}}));
  std::string bound_wire = SerializeDatasetWire(bound, WireFormat::kBinary);

  PlanPtr plan = Plan::Scan("__nxbind_state");
  std::string wire = SerializePlanWire(*plan, WireFormat::kBinary);
  uint64_t fp = FingerprintWire(wire);

  ASSERT_OK_AND_ASSIGN(
      Dataset out,
      provider_->ExecuteWire(BuildWireEnvelope(
          WireEnvelope::Kind::kPlanStore, fp,
          {{"__nxbind_state", bound_wire}}, wire)));
  EXPECT_TRUE(out.LogicallyEquals(bound));
  // The binding must not leak into the catalog after the call.
  EXPECT_FALSE(provider_->catalog()->Get("__nxbind_state").ok());

  // Re-exec by fingerprint with a different binding value: the cached plan
  // runs against the new binding, not a stale one.
  Dataset bound2(MakeTable(s, {{F(32.0)}}));
  ASSERT_OK_AND_ASSIGN(
      Dataset out2,
      provider_->ExecuteWire(BuildWireEnvelope(
          WireEnvelope::Kind::kExecCached, fp,
          {{"__nxbind_state",
            SerializeDatasetWire(bound2, WireFormat::kBinary)}},
          "")));
  EXPECT_TRUE(out2.LogicallyEquals(bound2));
}

TEST_F(PlanCacheTest, FifoEvictionForgetsOldestPlan) {
  // Cache the victim, then flood the cache with kPlanCacheCapacity distinct
  // plans so the victim is evicted; its fingerprint must then miss.
  PlanPtr victim = Plan::Scan("t");
  std::string victim_wire = SerializePlanWire(*victim, WireFormat::kBinary);
  uint64_t victim_fp = FingerprintWire(victim_wire);
  ASSERT_OK(provider_
                ->ExecuteWire(BuildWireEnvelope(WireEnvelope::Kind::kPlanStore,
                                                victim_fp, {}, victim_wire))
                .status());

  for (size_t i = 0; i < Provider::kPlanCacheCapacity; ++i) {
    PlanPtr filler =
        Plan::Limit(Plan::Scan("t"), static_cast<int64_t>(i + 1));
    std::string w = SerializePlanWire(*filler, WireFormat::kBinary);
    ASSERT_OK(provider_
                  ->ExecuteWire(BuildWireEnvelope(
                      WireEnvelope::Kind::kPlanStore, FingerprintWire(w), {},
                      w))
                  .status());
  }

  Result<Dataset> r = provider_->ExecuteWire(BuildWireEnvelope(
      WireEnvelope::Kind::kExecCached, victim_fp, {}, ""));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find(kPlanCacheMissMarker),
            std::string::npos);
}

TEST(ProviderWireTest, TextOnlyProviderRefusesNothingButAdvertisesText) {
  ProviderPtr legacy = MakeReferenceProvider(/*text_only=*/true);
  EXPECT_FALSE(legacy->AcceptsBinaryWire());
  SchemaPtr s = MakeSchema({Field::Attr("x", DataType::kInt64)});
  ASSERT_OK(legacy->catalog()->Put("t", Dataset(MakeTable(s, {{I(7)}}))));
  // A text plan wire still executes fine.
  std::string wire =
      SerializePlanWire(*Plan::Scan("t"), WireFormat::kText);
  ASSERT_OK_AND_ASSIGN(Dataset d, legacy->ExecuteWire(wire));
  EXPECT_EQ(d.table()->num_rows(), 1);
}

// ---------------------------------------------------------------------------
// Expression program cache across provider executions.
// ---------------------------------------------------------------------------

TEST(ExprProgramCacheTest, SecondExecuteCompilesNothing) {
  ClearProgramCacheForTest();
  ProviderPtr relstore = MakeRelationalProvider();
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(b.AppendRow({I(i % 100), F(static_cast<double>(i % 7))}));
  }
  ASSERT_OK(relstore->catalog()->Put("t", Dataset(b.Finish().ValueOrDie())));
  PlanPtr plan = Plan::Aggregate(
      Plan::Extend(Plan::Select(Plan::Scan("t"), Gt(Col("k"), Lit(10))),
                   {{"v2", Mul(Col("v"), Col("v"))}}),
      {"k"}, {AggSpec{AggFunc::kSum, Col("v2"), "ss"}});

  auto& reg = telemetry::MetricsRegistry::Global();
  telemetry::Counter* compiles = reg.counter("expr.compile");
  telemetry::Counter* hits = reg.counter("expr.compile_cache_hit");

  const int64_t c0 = compiles->value();
  ASSERT_OK_AND_ASSIGN(Dataset first, relstore->Execute(*plan));
  const int64_t compiled_first = compiles->value() - c0;
  EXPECT_GT(compiled_first, 0);  // cold cache: the pipeline compiled

  const int64_t c1 = compiles->value();
  const int64_t h1 = hits->value();
  ASSERT_OK_AND_ASSIGN(Dataset second, relstore->Execute(*plan));
  EXPECT_EQ(compiles->value() - c1, 0);  // warm cache: nothing recompiled
  EXPECT_GT(hits->value() - h1, 0);
  EXPECT_TRUE(second.table()->Equals(*first.table()));
}

/// Restores the process-wide thread count on exit.
struct ThreadGuard {
  int saved_threads = GetThreadCount();
  ~ThreadGuard() { SetThreadCount(saved_threads); }
};

/// Enables tracing for one scope and clears the recorded spans around it.
struct TraceGuard {
  TraceGuard() {
    telemetry::ClearSpans();
    telemetry::SetEnabled(true);
  }
  ~TraceGuard() {
    telemetry::SetEnabled(false);
    telemetry::ClearSpans();
  }
};

bool SawSpan(const std::string& name) {
  for (const telemetry::SpanRecord& s : telemetry::Spans()) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(ExprProgramCacheTest, FusedMatchesReferenceAndPerOperatorKernels) {
  ClearProgramCacheForTest();
  ProviderPtr relstore = MakeRelationalProvider();
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  Rng rng(5);
  for (int i = 0; i < 40000; ++i) {
    ASSERT_OK(b.AppendRow({I(rng.NextInt(0, 50)),
                           F(static_cast<double>(rng.NextInt(-9, 9)))}));
  }
  TablePtr t = b.Finish().ValueOrDie();
  ASSERT_OK(relstore->catalog()->Put("t", Dataset(t)));
  ExprPtr pred = Gt(Col("k"), Lit(7));
  std::vector<std::pair<std::string, ExprPtr>> defs = {
      {"z", Add(Mul(Col("v"), Lit(2.0)), Col("v"))}};
  PlanPtr plan = Plan::Project(
      Plan::Extend(Plan::Select(Plan::Scan("t"), pred), defs), {"z", "k"});

  ReferenceExecutor ref(relstore->catalog());
  ASSERT_OK_AND_ASSIGN(Dataset want, ref.Execute(*plan));
  ASSERT_OK_AND_ASSIGN(TablePtr filtered, relational::Filter(t, *pred));
  ASSERT_OK_AND_ASSIGN(TablePtr extended, relational::Extend(filtered, defs));
  ASSERT_OK_AND_ASSIGN(TablePtr per_op,
                       relational::Project(extended, {"z", "k"}));
  EXPECT_TRUE(per_op->Equals(*want.table()));

  ThreadGuard threads;
  for (int n : {1, 4}) {
    SetThreadCount(n);
    TraceGuard trace;
    ASSERT_OK_AND_ASSIGN(Dataset got, relstore->Execute(*plan));
    EXPECT_TRUE(SawSpan("rel.Fused")) << "threads=" << n;
    EXPECT_TRUE(got.table()->Equals(*want.table())) << "threads=" << n;
  }
}

// The two fallbacks of the compiled tier: a string-parsing cast makes the
// fused lowering refuse, so the chain runs on the per-operator kernels, and
// the compiler refuses the cast itself, so Extend evaluates it on the boxed
// interpreter.
TEST(ExprProgramCacheTest, RefusedChainRunsUnfusedAndMatchesReference) {
  ClearProgramCacheForTest();
  ProviderPtr relstore = MakeRelationalProvider();
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("s", DataType::kString)});
  TableBuilder b(s);
  Rng rng(11);
  for (int i = 0; i < 40000; ++i) {
    int64_t k = rng.NextInt(0, 20);
    // Rows with k < 3 hold unparsable strings; the filter drops them.
    Value str = k < 3 ? S(i % 2 == 0 ? "x7" : "")
                      : (rng.NextBool(0.1) ? N()
                                           : S(StrCat(rng.NextInt(-99, 99))));
    ASSERT_OK(b.AppendRow({I(k), str}));
  }
  ASSERT_OK(relstore->catalog()->Put("t", Dataset(b.Finish().ValueOrDie())));
  ExprPtr cast = Cast(DataType::kInt64, Col("s"));
  auto chain = [&](ExprPtr pred) {
    return Plan::Aggregate(
        Plan::Extend(Plan::Select(Plan::Scan("t"), std::move(pred)),
                     {{"n", cast}}),
        {"k"},
        {AggSpec{AggFunc::kSum, Col("n"), "total"},
         AggSpec{AggFunc::kCount, Col("n"), "cnt"}});
  };
  PlanPtr plan = chain(Ge(Col("k"), Lit(3)));
  EXPECT_TRUE(GetOrCompileProgram(*cast, *s).status().IsUnsupported());

  ReferenceExecutor ref(relstore->catalog());
  ASSERT_OK_AND_ASSIGN(Dataset want, ref.Execute(*plan));
  ThreadGuard threads;
  for (int n : {1, 4}) {
    SetThreadCount(n);
    TraceGuard trace;
    ASSERT_OK_AND_ASSIGN(Dataset got, relstore->Execute(*plan));
    EXPECT_FALSE(SawSpan("rel.Fused")) << "threads=" << n;
    EXPECT_TRUE(SawSpan("rel.Filter")) << "threads=" << n;
    EXPECT_TRUE(got.table()->Equals(*want.table())) << "threads=" << n;
  }

  // Without the filter the unparsable strings reach the cast: both engines
  // report the same type error.
  PlanPtr bad = chain(Ge(Col("k"), Lit(0)));
  Status ref_st = ref.Execute(*bad).status();
  EXPECT_EQ(ref_st.code(), StatusCode::kTypeError) << ref_st.ToString();
  for (int n : {1, 4}) {
    SetThreadCount(n);
    Status st = relstore->Execute(*bad).status();
    EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();
  }
}

// Sort → Limit on relstore sorts only the offset + limit rows the slice
// reads (top-k). The result must equal the full sort sliced and the
// reference executor, byte for byte, at any thread count, and EXPLAIN
// ANALYZE must still show the sort node.
TEST(TopKTest, SortLimitMatchesFullSortAndReference) {
  constexpr int64_t kRows = 3000;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  ProviderPtr relstore = MakeRelationalProvider();
  SchemaPtr s = MakeSchema({Field::Attr("same", DataType::kInt64),
                            Field::Attr("a", DataType::kInt64),
                            Field::Attr("d", DataType::kFloat64),
                            Field::Attr("s", DataType::kString),
                            Field::Attr("flag", DataType::kBool),
                            Field::Attr("dn", DataType::kFloat64)});
  TableBuilder b(s);
  Rng rng(42);
  for (int64_t i = 0; i < kRows; ++i) {
    // Few distinct values per key, so ties reach past every key.
    std::vector<Value> row = {
        I(7), I(rng.NextInt(0, 3)),
        F(static_cast<double>(rng.NextInt(-2, 2)) / 2.0),
        S(StrCat("k", rng.NextInt(0, 2))), testing::B(rng.NextBool()),
        rng.NextBool(0.05) ? F(std::numeric_limits<double>::quiet_NaN())
                           : F(static_cast<double>(rng.NextInt(0, 9)))};
    if (rng.NextBool(0.1)) row[1 + rng.NextBounded(5)] = N();
    ASSERT_OK(b.AppendRow(row));
  }
  TablePtr t = b.Finish().ValueOrDie();
  ASSERT_OK(relstore->catalog()->Put("t", Dataset(t)));
  ReferenceExecutor ref(relstore->catalog());

  const std::vector<std::vector<SortKey>> key_sets = {
      {{"same", true}},  // every row ties: input order
      {{"a", true}, {"d", false}, {"s", true}},
      {{"flag", false}, {"s", false}, {"a", true}},
      {{"d", true}, {"same", false}},
      {{"dn", false}, {"a", true}},  // NaN keys: NaN follows every number
  };
  // (limit, offset): empty, small, offset, all rows, past the end, and
  // INT64_MAX limits whose offset + limit saturates.
  const std::vector<std::pair<int64_t, int64_t>> slices = {
      {0, 0},     {10, 0},         {25, 40},         {kRows, 0},
      {kRows + 5, 0}, {7, kRows + 3}, {kMax, 0},    {kMax, 11},
      {5, kRows - 2}, {-1, 3},       {4, -2}};
  ThreadGuard threads;
  for (const std::vector<SortKey>& keys : key_sets) {
    ASSERT_OK_AND_ASSIGN(TablePtr sorted, relational::Sort(t, keys));
    for (const auto& [limit, offset] : slices) {
      PlanPtr plan = Plan::Limit(Plan::Sort(Plan::Scan("t"), keys), limit, offset);
      ASSERT_OK_AND_ASSIGN(TablePtr full,
                           relational::Limit(sorted, limit, offset));
      ASSERT_OK_AND_ASSIGN(Dataset want, ref.Execute(*plan));
      ASSERT_TRUE(full->Equals(*want.table())) << plan->ToString();
      for (int n : {1, 4}) {
        SetThreadCount(n);
        TraceGuard trace;
        ASSERT_OK_AND_ASSIGN(Dataset got, relstore->Execute(*plan));
        EXPECT_TRUE(got.table()->Equals(*full))
            << plan->ToString() << " threads=" << n;
        EXPECT_TRUE(SawSpan("rel.Sort")) << "threads=" << n;
        std::string explain = telemetry::ExplainAnalyze(telemetry::Spans());
        EXPECT_NE(explain.find("sort["), std::string::npos) << explain;
      }
    }
  }
}

// Sorts order float64 keys totally: NaN follows every number (first when
// descending), in relstore (full sort and top-k), the reference executor and
// a view's full recompute. Table::Equals takes NaN for any number, so the
// cells are checked with std::isnan.
TEST(SortTest, NaNSortsAfterEveryNumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ProviderPtr relstore = MakeRelationalProvider();
  SchemaPtr s = MakeSchema({Field::Attr("d", DataType::kFloat64)});
  ASSERT_OK(relstore->catalog()->Put(
      "t", Dataset(MakeTable(s, {{F(3.0)}, {F(nan)}, {F(1.0)}}))));
  ReferenceExecutor ref(relstore->catalog());
  auto expect_order = [](const Table& t, std::vector<double> want) {
    ASSERT_EQ(t.num_rows(), static_cast<int64_t>(want.size()));
    for (size_t i = 0; i < want.size(); ++i) {
      double got = t.column(0).doubles()[i];
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(got)) << "row " << i << " is " << got;
      } else {
        EXPECT_EQ(got, want[i]) << "row " << i;
      }
    }
  };
  for (bool ascending : {true, false}) {
    SCOPED_TRACE(ascending ? "ascending" : "descending");
    std::vector<double> want =
        ascending ? std::vector<double>{1.0, 3.0, nan}
                  : std::vector<double>{nan, 3.0, 1.0};
    PlanPtr sort = Plan::Sort(Plan::Scan("t"), {{"d", ascending}});
    ASSERT_OK_AND_ASSIGN(Dataset rel, relstore->Execute(*sort));
    expect_order(*rel.table(), want);
    ASSERT_OK_AND_ASSIGN(Dataset reference, ref.Execute(*sort));
    expect_order(*reference.table(), want);
    ASSERT_OK_AND_ASSIGN(TablePtr view, incremental::ExecuteViewPlan(
                                            *sort, *relstore->catalog()));
    expect_order(*view, want);
    ASSERT_OK_AND_ASSIGN(Dataset top,
                         relstore->Execute(*Plan::Limit(sort, 2)));
    expect_order(*top.table(), {want[0], want[1]});
  }
}

}  // namespace
}  // namespace nexus
