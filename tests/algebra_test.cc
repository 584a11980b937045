// Tests for the semi-ring kernel subsystem: registry contracts, the
// associative-array bridge, the Ext/Join/Union kernels, the CSR kernels
// under every registered ring, and the grouped fold (LowerAggregate) against
// the reference executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "algebra/assoc_array.h"
#include "algebra/csr.h"
#include "algebra/kernels.h"
#include "algebra/semiring.h"
#include "common/parallel.h"
#include "common/query_profile.h"
#include "common/random.h"
#include "exec/reference_executor.h"
#include "expr/builder.h"
#include "graph/graph.h"
#include "linalg/sparse.h"
#include "optimizer/lower_semiring.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using algebra::AssocArray;
using algebra::Semiring;
using linalg::SparseMatrixCSR;
using linalg::Triplet;
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;

/// Restores the process-wide thread count on exit.
struct ThreadGuard {
  int saved_threads = GetThreadCount();
  ~ThreadGuard() { SetThreadCount(saved_threads); }
};

const Semiring& Ring(const std::string& name) {
  const Semiring* s = algebra::FindSemiring(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

// ---------------------------------------------------------------------------
// Registry and contracts.
// ---------------------------------------------------------------------------

TEST(SemiringTest, RegistryShipsTheFiveRingsAndAllPassContracts) {
  const auto& rings = algebra::SemiringRegistry();
  ASSERT_EQ(rings.size(), 5u);
  for (const Semiring& s : rings) {
    EXPECT_OK(algebra::VerifyContracts(s));
    EXPECT_EQ(algebra::FindSemiring(s.name), &s);
  }
  EXPECT_EQ(algebra::FindSemiring("frobnicate"), nullptr);
}

TEST(SemiringTest, TropicalIdentities) {
  const Semiring& mp = Ring("min_plus");
  EXPECT_EQ(mp.zero_f, std::numeric_limits<double>::infinity());
  EXPECT_EQ(mp.one_f, 0.0);
  EXPECT_EQ(algebra::ApplyF(mp.plus, 3.0, 5.0), 3.0);
  EXPECT_EQ(algebra::ApplyF(mp.times, 3.0, 5.0), 8.0);
  const Semiring& mt = Ring("max_times");
  EXPECT_EQ(algebra::ApplyF(mt.plus, 0.25, 0.5), 0.5);
  EXPECT_EQ(algebra::ApplyF(mt.times, 0.25, 0.5), 0.125);
  const Semiring& oa = Ring("or_and");
  EXPECT_EQ(algebra::ApplyI(oa.plus, 0, 1), 1);
  EXPECT_EQ(algebra::ApplyI(oa.times, 1, 0), 0);
  EXPECT_TRUE(Ring("count").lift);
}

TEST(SemiringTest, BrokenRingFailsContracts) {
  // (−, ×) is not a semi-ring: ⊕ is neither associative nor commutative.
  Semiring bad;
  bad.name = "sub_times";
  bad.plus = algebra::MonoidOp::kMul;  // 1 is not a ⊕-identity with zero_f=0
  EXPECT_FALSE(algebra::VerifyContracts(bad).ok());
}

// ---------------------------------------------------------------------------
// Associative arrays.
// ---------------------------------------------------------------------------

TEST(AssocArrayTest, FromTableProjectsKeysAndValue) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("junk", DataType::kString),
                            Field::Attr("v", DataType::kFloat64)});
  TablePtr t = MakeTable(s, {{I(7), S("x"), F(1.5)}, {I(3), S("y"), F(2.5)}});
  ASSERT_OK_AND_ASSIGN(AssocArray a, AssocArray::FromTable(t, {"k"}, "v"));
  EXPECT_EQ(a.num_keys(), 1);
  EXPECT_EQ(a.num_entries(), 2);
  EXPECT_EQ(a.key_name(0), "k");
  EXPECT_EQ(a.value_name(), "v");
  // Entry order is preserved from the table.
  EXPECT_EQ(a.key_column(0).ints()[0], 7);
  EXPECT_EQ(a.value_column().doubles()[1], 2.5);
}

TEST(AssocArrayTest, RejectsNullKeysAndNonNumericValues) {
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TablePtr null_key = MakeTable(s, {{N(), F(1.0)}});
  EXPECT_FALSE(AssocArray::FromTable(null_key, {"k"}, "v").ok());
  SchemaPtr s2 = MakeSchema({Field::Attr("k", DataType::kInt64),
                             Field::Attr("v", DataType::kBool)});
  TablePtr bool_val = MakeTable(s2, {{I(1), testing::B(true)}});
  EXPECT_FALSE(AssocArray::FromTable(bool_val, {"k"}, "v").ok());
}

TEST(AssocArrayTest, TripletAndDenseVectorBridges) {
  std::vector<Triplet> trips = {{1, 0, 2.0}, {0, 2, 3.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray a,
                       AssocArray::FromTriplets(trips, "i", "j", "v"));
  ASSERT_OK_AND_ASSIGN(std::vector<Triplet> back, a.ToTriplets());
  ASSERT_EQ(back.size(), 2u);
  // FromTriplets preserves the given order (unlike CSR construction).
  EXPECT_EQ(back[0].row, 1);
  EXPECT_EQ(back[1].col, 2);
  ASSERT_OK_AND_ASSIGN(AssocArray x,
                       AssocArray::FromDenseVector({0.5, 0.0, -2.0}, "k", "x"));
  EXPECT_EQ(x.num_entries(), 3);  // explicit zeros are entries
  EXPECT_EQ(x.key_column(0).ints()[2], 2);
  EXPECT_EQ(x.value_column().doubles()[2], -2.0);
}

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

AssocArray Entries(const std::vector<std::pair<int64_t, double>>& kv,
                   const std::string& key = "k",
                   const std::string& val = "v") {
  SchemaPtr s = MakeSchema({Field::Attr(key, DataType::kInt64),
                            Field::Attr(val, DataType::kFloat64)});
  std::vector<std::vector<Value>> rows;
  for (const auto& [k, v] : kv) rows.push_back({I(k), F(v)});
  auto r = AssocArray::FromTable(MakeTable(s, rows), {key}, val);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.MoveValue();
}

TEST(KernelTest, ExtFlatmapsInEntryOrder) {
  AssocArray a = Entries({{1, 2.0}, {2, 3.0}});
  // Emit (k, v) and (k + 10, v * 2) per entry.
  ASSERT_OK_AND_ASSIGN(
      AssocArray out,
      algebra::Ext(a, {Field::Attr("k", DataType::kInt64)},
                   Field::Attr("v", DataType::kFloat64),
                   [](const std::vector<Value>& keys, const Value& v,
                      const std::function<void(std::vector<Value>, Value)>& emit)
                       -> Status {
                     emit({keys[0]}, v);
                     emit({Value::Int64(keys[0].AsInt64() + 10)},
                          Value::Float64(v.AsDouble() * 2));
                     return Status::OK();
                   }));
  ASSERT_EQ(out.num_entries(), 4);
  EXPECT_EQ(out.key_column(0).ints()[0], 1);
  EXPECT_EQ(out.key_column(0).ints()[1], 11);
  EXPECT_EQ(out.value_column().doubles()[1], 4.0);
  EXPECT_EQ(out.key_column(0).ints()[2], 2);
}

TEST(KernelTest, JoinCombinesWithTimesInProbeOrder) {
  AssocArray a = Entries({{1, 2.0}, {2, 3.0}, {1, 5.0}});
  AssocArray b = Entries({{1, 10.0}, {1, 100.0}}, "k", "w");
  ASSERT_OK_AND_ASSIGN(AssocArray j, algebra::Join(a, b, Ring("plus_times")));
  // a-entry order, with b-matches in b-entry order; value name is "v_w".
  ASSERT_EQ(j.num_entries(), 4);
  EXPECT_EQ(j.value_name(), "v_w");
  const auto& vals = j.value_column().doubles();
  EXPECT_EQ(vals[0], 20.0);
  EXPECT_EQ(vals[1], 200.0);
  EXPECT_EQ(vals[2], 50.0);
  EXPECT_EQ(vals[3], 500.0);
  // No shared key name at all is an error, not a cross product.
  AssocArray c = Entries({{1, 1.0}}, "other");
  EXPECT_FALSE(algebra::Join(a, c, Ring("plus_times")).ok());
}

TEST(KernelTest, JoinUnderLiftedRingCountsPairs) {
  AssocArray a = Entries({{1, 2.0}, {2, 3.0}});
  AssocArray b = Entries({{1, 9.0}, {1, 8.0}}, "k", "w");
  ASSERT_OK_AND_ASSIGN(AssocArray j, algebra::Join(a, b, Ring("count")));
  ASSERT_EQ(j.num_entries(), 2);
  for (double v : j.value_column().doubles()) EXPECT_EQ(v, 1.0);
}

TEST(KernelTest, UnionFoldsDuplicatesFirstSeenOrder) {
  AssocArray a = Entries({{5, 1.0}, {3, 2.0}});
  AssocArray b = Entries({{3, 10.0}, {9, 4.0}});
  ASSERT_OK_AND_ASSIGN(AssocArray u, algebra::Union(a, b, Ring("plus_times")));
  ASSERT_EQ(u.num_entries(), 3);
  // First-seen key order: 5, 3, 9; key 3 folds 2.0 ⊕ 10.0.
  EXPECT_EQ(u.key_column(0).ints()[0], 5);
  EXPECT_EQ(u.key_column(0).ints()[1], 3);
  EXPECT_EQ(u.key_column(0).ints()[2], 9);
  EXPECT_EQ(u.value_column().doubles()[1], 12.0);
  // min_plus ⊕ keeps the smaller value.
  ASSERT_OK_AND_ASSIGN(AssocArray m, algebra::Union(a, b, Ring("min_plus")));
  EXPECT_EQ(m.value_column().doubles()[1], 2.0);
  // Schema mismatches are type errors.
  AssocArray c = Entries({{1, 1.0}}, "other");
  EXPECT_FALSE(algebra::Union(a, c, Ring("plus_times")).ok());
}

TEST(KernelTest, ReduceProjectsThenFolds) {
  // Two-key array reduced to its first key: ⊕-sums across the dropped key.
  std::vector<Triplet> trips = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 4.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray a,
                       AssocArray::FromTriplets(trips, "i", "j", "v"));
  ASSERT_OK_AND_ASSIGN(AssocArray r,
                       algebra::Reduce(a, {"i"}, Ring("plus_times")));
  ASSERT_EQ(r.num_entries(), 2);
  EXPECT_EQ(r.value_column().doubles()[0], 3.0);
  EXPECT_EQ(r.value_column().doubles()[1], 4.0);
  // A full scalar reduction must keep at least one key.
  EXPECT_FALSE(algebra::Reduce(a, {}, Ring("plus_times")).ok());
}

TEST(KernelTest, OrAndReachabilityStep) {
  // frontier ∨⊗∧ edges: one step of boolean reachability.
  AssocArray frontier = Entries({{0, 1.0}}, "u", "f");
  std::vector<Triplet> edges = {{0, 1, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}};
  ASSERT_OK_AND_ASSIGN(AssocArray e,
                       AssocArray::FromTriplets(edges, "u", "w", "f"));
  ASSERT_OK_AND_ASSIGN(AssocArray step,
                       algebra::Join(frontier, e, Ring("or_and")));
  ASSERT_OK_AND_ASSIGN(AssocArray reached,
                       algebra::Reduce(step, {"w"}, Ring("or_and")));
  ASSERT_EQ(reached.num_entries(), 2);  // nodes 1 and 2, not 3
  for (double v : reached.value_column().doubles()) EXPECT_EQ(v, 1.0);
}

// ---------------------------------------------------------------------------
// LowerAggregate, the one grouped fold, against the reference executor.
// ---------------------------------------------------------------------------

TablePtr RandomSales(int64_t n, uint64_t seed) {
  SchemaPtr s = MakeSchema({Field::Attr("g", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64),
                            Field::Attr("c", DataType::kInt64)});
  TableBuilder b(s);
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    Value g = rng.NextInt(0, 49) == 0 ? Value::Null() : I(rng.NextInt(0, 11));
    Value v = rng.NextInt(0, 9) == 0 ? Value::Null()
                                     : F(rng.NextDouble(-100, 100));
    Value c = rng.NextInt(0, 19) == 0 ? Value::Null() : I(rng.NextInt(-5, 5));
    EXPECT_OK(b.AppendRow({g, v, c}));
  }
  return b.Finish().ValueOrDie();
}

void ExpectLoweredMatchesReference(const TablePtr& t, const AggregateOp& op) {
  ReferenceExecutor ref(nullptr);
  ASSERT_OK_AND_ASSIGN(
      Dataset want_ds,
      ref.Execute(*Plan::Aggregate(Plan::Values(Dataset(t)), op.group_by,
                                   op.aggs)));
  TablePtr want = want_ds.table();
  ASSERT_NE(want, nullptr);
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ASSERT_OK_AND_ASSIGN(TablePtr got, algebra::LowerAggregate(t, op));
    EXPECT_TRUE(got->Equals(*want)) << "threads=" << threads << "\ngot:\n"
                                    << got->ToString() << "want:\n"
                                    << want->ToString();
    EXPECT_TRUE(got->schema()->Equals(*want->schema()));
  }
}

TEST(LowerAggregateTest, GroupedFoldsMatchHashAggregate) {
  TablePtr t = RandomSales(40000, 17);  // multiple morsels
  AggregateOp op;
  op.group_by = {"g"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kSum, Col("c"), "sc"},
             AggSpec{AggFunc::kMin, Col("v"), "lo"},
             AggSpec{AggFunc::kMax, Col("c"), "hi"},
             AggSpec{AggFunc::kCount, Col("v"), "nv"},
             AggSpec{AggFunc::kCount, nullptr, "n"}};
  ExpectLoweredMatchesReference(t, op);
}

TEST(LowerAggregateTest, GlobalAndEmptyInputsMatchHashAggregate) {
  AggregateOp global;
  global.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
                 AggSpec{AggFunc::kMin, Col("v"), "lo"},
                 AggSpec{AggFunc::kAvg, Col("c"), "mc"},
                 AggSpec{AggFunc::kCount, nullptr, "n"}};
  ExpectLoweredMatchesReference(RandomSales(500, 3), global);
  // Empty input: global aggregates yield one all-null/zero row.
  ExpectLoweredMatchesReference(RandomSales(0, 3), global);
  AggregateOp grouped = global;
  grouped.group_by = {"g"};
  ExpectLoweredMatchesReference(RandomSales(0, 3), grouped);
}

TEST(LowerAggregateTest, AvgIsTheSumCountFoldOverNulls) {
  // AVG over float64 and int64 inputs with null inputs and a null group key,
  // on the sequential path and on the partitioned 4-thread path.
  TablePtr t = RandomSales(40000, 29);
  AggregateOp op;
  op.group_by = {"g"};
  op.aggs = {AggSpec{AggFunc::kAvg, Col("v"), "mv"},
             AggSpec{AggFunc::kAvg, Col("c"), "mc"},
             AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kCount, Col("c"), "nc"}};
  ExpectLoweredMatchesReference(t, op);
  // A group whose inputs are all null averages to NULL.
  TablePtr nulls = MakeTable(MakeSchema({Field::Attr("g", DataType::kInt64),
                                         Field::Attr("v", DataType::kFloat64),
                                         Field::Attr("c", DataType::kInt64)}),
                             {{I(1), N(), N()}, {I(2), F(0.5), I(3)},
                              {I(1), N(), N()}});
  ExpectLoweredMatchesReference(nulls, op);
}

TEST(LowerAggregateTest, CountOfBoolCountsNonNullValues) {
  TablePtr t = MakeTable(MakeSchema({Field::Attr("g", DataType::kInt64),
                                     Field::Attr("b", DataType::kBool)}),
                         {{I(1), Value::Bool(true)},
                          {I(1), N()},
                          {I(2), Value::Bool(false)}});
  AggregateOp op;
  op.group_by = {"g"};
  op.aggs = {AggSpec{AggFunc::kCount, Col("b"), "nb"}};
  ExpectLoweredMatchesReference(t, op);
  ASSERT_OK_AND_ASSIGN(TablePtr got, algebra::LowerAggregate(t, op));
  EXPECT_EQ(got->At(0, 1), I(1));
  EXPECT_EQ(got->At(1, 1), I(1));
  // Folds other than COUNT still refuse bool input.
  op.aggs = {AggSpec{AggFunc::kSum, Col("b"), "sb"}};
  EXPECT_FALSE(algebra::LowerAggregate(t, op).ok());
}

TEST(LowerAggregateTest, GroupStatesAreChargedToTheQueryMeter) {
  constexpr int64_t kGroups = 20000;
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 2 * kGroups; ++i) {
    rows.push_back({I(i % kGroups), F(static_cast<double>(i))});
  }
  TablePtr t = MakeTable(MakeSchema({Field::Attr("g", DataType::kInt64),
                                     Field::Attr("v", DataType::kFloat64)}),
                         rows);
  AggregateOp op;
  op.group_by = {"g"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kCount, nullptr, "n"}};
  TablePtr in_memory;
  {
    testing::ScopedBudget scope(0);  // metered, never spills
    ASSERT_OK_AND_ASSIGN(in_memory, algebra::LowerAggregate(t, op));
    EXPECT_EQ(in_memory->num_rows(), kGroups);
    // The group states' working set is charged while they live and released
    // when the aggregate returns.
    const int64_t states =
        kGroups * static_cast<int64_t>(2 * sizeof(algebra::MonoidState) + 64);
    EXPECT_EQ(scope.meter().released(), states);
    EXPECT_GE(scope.meter().charged(), states);
  }
  // Spilled arm: the same fold under a 4 KiB spill budget partitions to
  // scratch, stays net-accounted, and returns the identical table.
  testing::ScopedBudget scope(4096);
  ScopedQuery query;
  ASSERT_OK_AND_ASSIGN(TablePtr spilled, algebra::LowerAggregate(t, op));
  EXPECT_TRUE(spilled->Equals(*in_memory));
  EXPECT_LE(scope.meter().released(), scope.meter().charged());
  EXPECT_GT(query.profile()[QueryStat::kSpillOps], 0);
}

// ---------------------------------------------------------------------------
// CSR kernels (algebra/csr.h) against two oracles: the generic hash
// Join/Reduce composition of the same expression under every registered
// ring, and, under plus_times, the native engine loops the kernels replaced,
// frozen below as the reference.
// ---------------------------------------------------------------------------

// The native loops SparseMatrixCSR::SpMV/SpGEMM and graph::PageRank/Bfs ran
// before they moved onto the algebra's kernels, kept verbatim.
std::vector<double> FrozenSpMV(const SparseMatrixCSR& m,
                               const std::vector<double>& x) {
  const auto& rp = m.row_ptr();
  std::vector<double> y(static_cast<size_t>(m.rows()), 0.0);
  for (int64_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (int64_t i = rp[static_cast<size_t>(r)]; i < rp[static_cast<size_t>(r) + 1];
         ++i) {
      s += m.values()[static_cast<size_t>(i)] *
           x[static_cast<size_t>(m.col_idx()[static_cast<size_t>(i)])];
    }
    y[static_cast<size_t>(r)] = s;
  }
  return y;
}

std::vector<Triplet> FrozenSpGEMM(const SparseMatrixCSR& a,
                                  const SparseMatrixCSR& b) {
  std::vector<double> workspace(static_cast<size_t>(b.cols()), 0.0);
  std::vector<int64_t> touched;
  std::vector<Triplet> out;
  for (int64_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (int64_t i = a.row_ptr()[static_cast<size_t>(r)];
         i < a.row_ptr()[static_cast<size_t>(r) + 1]; ++i) {
      int64_t k = a.col_idx()[static_cast<size_t>(i)];
      double av = a.values()[static_cast<size_t>(i)];
      for (int64_t j = b.row_ptr()[static_cast<size_t>(k)];
           j < b.row_ptr()[static_cast<size_t>(k) + 1]; ++j) {
        int64_t c = b.col_idx()[static_cast<size_t>(j)];
        if (workspace[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
        workspace[static_cast<size_t>(c)] += av * b.values()[static_cast<size_t>(j)];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int64_t c : touched) {
      double v = workspace[static_cast<size_t>(c)];
      workspace[static_cast<size_t>(c)] = 0.0;
      if (v != 0.0) out.push_back(Triplet{r, c, v});
    }
  }
  return out;
}

graph::PageRankResult FrozenPageRank(const graph::CsrGraph& g,
                                     const graph::PageRankOptions& opts) {
  graph::PageRankResult out;
  int64_t n = g.num_nodes();
  if (n == 0) return out;
  out.rank.assign(static_cast<size_t>(n), 1.0 / static_cast<double>(n));
  std::vector<double> next(static_cast<size_t>(n));
  for (int64_t iter = 0; iter < opts.max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      if (g.out_degree(u) == 0) dangling += out.rank[static_cast<size_t>(u)];
    }
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (int64_t u = 0; u < n; ++u) {
      int64_t deg = g.out_degree(u);
      if (deg == 0) continue;
      double share = opts.damping * out.rank[static_cast<size_t>(u)] /
                     static_cast<double>(deg);
      for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
        next[static_cast<size_t>(*v)] += share;
      }
    }
    double delta = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      delta += std::fabs(next[static_cast<size_t>(u)] - out.rank[static_cast<size_t>(u)]);
    }
    out.rank.swap(next);
    out.final_delta = delta;
    ++out.iterations;
    if (delta < opts.epsilon) break;
  }
  return out;
}

std::vector<int64_t> FrozenBfs(const graph::CsrGraph& g, int64_t source) {
  std::vector<int64_t> level(static_cast<size_t>(g.num_nodes()), -1);
  if (source < 0 || source >= g.num_nodes()) return level;
  std::queue<int64_t> frontier;
  level[static_cast<size_t>(source)] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    int64_t u = frontier.front();
    frontier.pop();
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      if (level[static_cast<size_t>(*v)] < 0) {
        level[static_cast<size_t>(*v)] = level[static_cast<size_t>(u)] + 1;
        frontier.push(*v);
      }
    }
  }
  return level;
}

// The generic-kernel oracles: each CSR kernel's expression composed from
// Join⊗ / ExtProject / Union⊕ / Reduce⊕ over associative arrays.
AssocArray Assoc(const std::vector<Triplet>& t, const char* row,
                 const char* col) {
  return AssocArray::FromTriplets(t, row, col, "w").ValueOrDie();
}

std::vector<double> OracleMxV(const Semiring& sr, const SparseMatrixCSR& a,
                              const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(a.rows()), sr.zero_f);
  AssocArray joined =
      algebra::Join(Assoc(a.ToTriplets(), "i", "k"),
                    AssocArray::FromDenseVector(x, "k", "x").ValueOrDie(), sr)
          .ValueOrDie();
  if (joined.num_entries() == 0) return y;
  AssocArray red = algebra::Reduce(joined, {"i"}, sr).ValueOrDie();
  for (int64_t e = 0; e < red.num_entries(); ++e) {
    y[static_cast<size_t>(red.key_column(0).ints()[static_cast<size_t>(e)])] =
        red.value_column().doubles()[static_cast<size_t>(e)];
  }
  return y;
}

std::vector<Triplet> OracleMxM(const Semiring& sr, const SparseMatrixCSR& a,
                               const SparseMatrixCSR& b) {
  std::vector<Triplet> out;
  AssocArray joined = algebra::Join(Assoc(a.ToTriplets(), "i", "k"),
                                    Assoc(b.ToTriplets(), "k", "j"), sr)
                          .ValueOrDie();
  if (joined.num_entries() == 0) return out;
  AssocArray red = algebra::Reduce(joined, {"i", "j"}, sr).ValueOrDie();
  std::vector<Triplet> reduced = red.ToTriplets().ValueOrDie();
  for (const Triplet& t : reduced) {
    if (t.value != sr.zero_f) out.push_back(t);  // the ring zero is not stored
  }
  std::sort(out.begin(), out.end(), [](const Triplet& p, const Triplet& q) {
    return p.row != q.row ? p.row < q.row : p.col < q.col;
  });
  return out;
}

std::vector<double> OracleVxMPush(const Semiring& sr, const SparseMatrixCSR& a,
                                  const std::vector<double>& x,
                                  const std::vector<double>& base) {
  AssocArray joined =
      algebra::Join(AssocArray::FromDenseVector(x, "u", "x").ValueOrDie(),
                    Assoc(a.ToTriplets(), "u", "v"), sr)
          .ValueOrDie();
  AssocArray contrib = algebra::ExtProject(joined, {"v"}).ValueOrDie();
  AssocArray merged =
      algebra::Union(AssocArray::FromDenseVector(base, "v", "x").ValueOrDie(),
                     contrib, sr)
          .ValueOrDie();
  std::vector<double> y(base.size());
  for (int64_t e = 0; e < merged.num_entries(); ++e) {
    y[static_cast<size_t>(merged.key_column(0).ints()[static_cast<size_t>(e)])] =
        merged.value_column().doubles()[static_cast<size_t>(e)];
  }
  return y;
}

algebra::SparseVec OracleMaskedStep(const Semiring& sr, const SparseMatrixCSR& a,
                                    const algebra::SparseVec& frontier,
                                    const std::vector<bool>& settled) {
  algebra::SparseVec out;
  std::vector<std::pair<int64_t, double>> kv;
  for (size_t f = 0; f < frontier.idx.size(); ++f) {
    kv.emplace_back(frontier.idx[f], frontier.val[f]);
  }
  AssocArray joined =
      algebra::Join(Entries(kv, "u", "x"), Assoc(a.ToTriplets(), "u", "v"), sr)
          .ValueOrDie();
  if (joined.num_entries() == 0) return out;
  AssocArray red = algebra::Reduce(joined, {"v"}, sr).ValueOrDie();
  for (int64_t e = 0; e < red.num_entries(); ++e) {
    int64_t v = red.key_column(0).ints()[static_cast<size_t>(e)];
    if (settled[static_cast<size_t>(v)]) continue;
    out.idx.push_back(v);
    out.val.push_back(red.value_column().doubles()[static_cast<size_t>(e)]);
  }
  return out;
}

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void ExpectTripletsBitEqual(const std::vector<Triplet>& got,
                            const std::vector<Triplet>& want,
                            const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << what << " [" << i << "]";
    EXPECT_EQ(got[i].col, want[i].col) << what << " [" << i << "]";
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].value),
              std::bit_cast<uint64_t>(want[i].value))
        << what << " [" << i << "]";
  }
}

// A value drawn for `ring`'s domain: dyadic values half the time (sums are
// exact, so some outputs cancel to exactly 0) and explicit zeros among
// them; or_and stays boolean and max_times non-negative.
double RingValue(const std::string& ring, Rng* rng) {
  static const double kDyadic[] = {0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 0.25};
  double v = rng->NextBool() ? kDyadic[rng->NextInt(0, 6)]
                             : rng->NextDouble(-1, 1);
  if (ring == "or_and") return v > 0 ? 1.0 : 0.0;
  if (ring == "max_times") return std::fabs(v);
  return v;
}

// rows×cols triplets with explicit zeros, duplicate coordinates (summed by
// FromTriplets) and every third row left empty.
SparseMatrixCSR AdversarialMatrix(const std::string& ring, int64_t rows,
                                  int64_t cols, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i) {
    Triplet t{rng.NextInt(0, rows - 1), rng.NextInt(0, cols - 1),
              RingValue(ring, &rng)};
    if (t.row % 3 == 2) continue;
    trips.push_back(t);
    if (rng.NextInt(0, 4) == 0) {
      trips.push_back(Triplet{t.row, t.col, RingValue(ring, &rng)});
    }
  }
  return SparseMatrixCSR::FromTriplets(rows, cols, std::move(trips)).ValueOrDie();
}

algebra::CsrView ViewOf(const SparseMatrixCSR& m) {
  return algebra::CsrView{m.rows(), m.cols(), m.row_ptr().data(),
                          m.col_idx().data(), m.values().data()};
}

// Calls fn(R{}) with csr.h's compile-time ring matching the registered
// ring `sr` (ops, lift and zero); false when no ring type matches.
template <typename Fn>
bool WithRing(const Semiring& sr, Fn&& fn) {
  bool found = false;
  auto try_ring = [&](auto ring) {
    using R = decltype(ring);
    if (found || sr.plus != R::kPlus || sr.times != R::kTimes ||
        sr.lift != R::kLift || sr.zero_f != R::kZero) {
      return;
    }
    fn(ring);
    found = true;
  };
  try_ring(algebra::PlusTimes{});
  try_ring(algebra::MinPlus{});
  try_ring(algebra::MaxTimes{});
  try_ring(algebra::OrAnd{});
  try_ring(algebra::CountRing{});
  return found;
}

class CsrKernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Semiring& sr() const { return Ring(GetParam()); }
  std::vector<double> Vector(int64_t n, uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> x(static_cast<size_t>(n));
    for (double& v : x) v = RingValue(GetParam(), &rng);
    return x;
  }
};

TEST_P(CsrKernelTest, MxVMatchesHashJoinReduce) {
  ThreadGuard guard;
  for (uint64_t seed : {1, 2, 3}) {
    SparseMatrixCSR a = AdversarialMatrix(GetParam(), 40, 30, 300, seed);
    std::vector<double> x = Vector(30, seed + 100);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      std::vector<double> want = OracleMxV(sr(), a, x);
      ASSERT_TRUE(WithRing(sr(), [&](auto ring) {
        using R = decltype(ring);
        ExpectBitEqual(algebra::MxV<R>(ViewOf(a), x), want,
                       "MxV seed=" + std::to_string(seed));
      }));
    }
  }
}

TEST_P(CsrKernelTest, MxMMatchesHashJoinReduce) {
  ThreadGuard guard;
  for (uint64_t seed : {4, 5, 6}) {
    SparseMatrixCSR a = AdversarialMatrix(GetParam(), 18, 15, 90, seed);
    SparseMatrixCSR b = AdversarialMatrix(GetParam(), 15, 21, 90, seed + 50);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      std::vector<Triplet> want = OracleMxM(sr(), a, b);
      ASSERT_TRUE(WithRing(sr(), [&](auto ring) {
        using R = decltype(ring);
        ExpectTripletsBitEqual(algebra::MxM<R>(ViewOf(a), ViewOf(b)), want,
                               "MxM seed=" + std::to_string(seed));
      }));
    }
  }
}

TEST_P(CsrKernelTest, VxMPushMatchesJoinUnion) {
  ThreadGuard guard;
  for (uint64_t seed : {7, 8, 9}) {
    SparseMatrixCSR a = AdversarialMatrix(GetParam(), 25, 25, 150, seed);
    std::vector<double> x = Vector(25, seed + 100);
    // The base is a stored entry per column; a lifted ring sees it as one.
    std::vector<double> base(25, sr().lift ? sr().one_f : 0.75);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      std::vector<double> want = OracleVxMPush(sr(), a, x, base);
      ASSERT_TRUE(WithRing(sr(), [&](auto ring) {
        using R = decltype(ring);
        std::vector<double> y = base;
        algebra::VxMPush<R>(ViewOf(a), x, &y);
        ExpectBitEqual(y, want, "VxMPush seed=" + std::to_string(seed));
      }));
    }
  }
}

TEST_P(CsrKernelTest, MaskedVxMTraversalMatchesJoinReduce) {
  ThreadGuard guard;
  for (uint64_t seed : {10, 11}) {
    SparseMatrixCSR valued = AdversarialMatrix(GetParam(), 30, 30, 120, seed);
    // The same structure as a pattern matrix (every entry 1.0): a uniform
    // frontier then takes the idempotent-⊕ shortcut where the ring has one.
    std::vector<Triplet> ones = valued.ToTriplets();
    for (Triplet& t : ones) t.value = 1.0;
    SparseMatrixCSR pattern =
        SparseMatrixCSR::FromTriplets(30, 30, ones).ValueOrDie();
    for (bool is_pattern : {false, true}) {
      const SparseMatrixCSR& a = is_pattern ? pattern : valued;
      algebra::CsrView view = ViewOf(a);
      if (is_pattern) view.values = nullptr;
      for (int threads : {1, 4}) {
        SetThreadCount(threads);
        ASSERT_TRUE(WithRing(sr(), [&](auto ring) {
          using R = decltype(ring);
          algebra::TraversalMask mask(30);
          std::vector<bool> settled(30, false);
          mask.state[0] = algebra::TraversalMask::kSettled;
          settled[0] = true;
          algebra::SparseVec frontier{{0}, {sr().one_f}}, next;
          int steps = 0;
          while (!frontier.idx.empty()) {
            const std::string what = "pattern=" + std::to_string(is_pattern) +
                                     " step=" + std::to_string(steps);
            algebra::SparseVec want =
                OracleMaskedStep(sr(), a, frontier, settled);
            algebra::MaskedVxM<R>(view, frontier, &mask, &next);
            ASSERT_EQ(next.idx, want.idx) << what;
            ExpectBitEqual(next.val, want.val, what);
            for (int64_t v : next.idx) settled[static_cast<size_t>(v)] = true;
            std::swap(frontier, next);
            ++steps;
          }
        }));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryRing, CsrKernelTest,
                         ::testing::Values("plus_times", "min_plus",
                                           "max_times", "or_and", "count"));

TEST(CsrKernelRingTest, EveryRegisteredRingHasAKernelRing) {
  for (const Semiring& s : algebra::SemiringRegistry()) {
    EXPECT_TRUE(WithRing(s, [](auto) {})) << s.name;
  }
  Semiring odd = Ring("plus_times");
  odd.plus = algebra::MonoidOp::kMin;
  EXPECT_FALSE(WithRing(odd, [](auto) {}));
}

// The engine entry points under plus_times are bit-identical to the frozen
// native loops at any thread count.
TEST(CsrEngineTest, SpMVAndSpGEMMBitEqualFrozenLoops) {
  ThreadGuard guard;
  for (uint64_t seed : {21, 22, 23}) {
    SparseMatrixCSR a = AdversarialMatrix("plus_times", 30, 20, 200, seed);
    SparseMatrixCSR b = AdversarialMatrix("plus_times", 20, 25, 150, seed + 7);
    Rng rng(seed);
    std::vector<double> x(20);
    for (double& v : x) v = RingValue("plus_times", &rng);
    std::vector<double> spmv_want = FrozenSpMV(a, x);
    ASSERT_OK_AND_ASSIGN(
        SparseMatrixCSR gemm_want,
        SparseMatrixCSR::FromTriplets(30, 25, FrozenSpGEMM(a, b)));
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      ASSERT_OK_AND_ASSIGN(std::vector<double> y, a.SpMV(x));
      ExpectBitEqual(y, spmv_want, "SpMV threads=" + std::to_string(threads));
      ASSERT_OK_AND_ASSIGN(SparseMatrixCSR c, a.SpGEMM(b));
      ExpectTripletsBitEqual(c.ToTriplets(), gemm_want.ToTriplets(),
                             "SpGEMM threads=" + std::to_string(threads));
    }
  }
}

TEST(CsrEngineTest, SpGEMMDropsCancelledCells) {
  // Row 0 of A·B is 1·1 + 1·(−1) = 0 exactly: not stored, as before.
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR a,
                       SparseMatrixCSR::FromTriplets(
                           2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 2.0}}));
  ASSERT_OK_AND_ASSIGN(
      SparseMatrixCSR b,
      SparseMatrixCSR::FromTriplets(2, 1, {{0, 0, 1.0}, {1, 0, -1.0}}));
  ASSERT_OK_AND_ASSIGN(SparseMatrixCSR c, a.SpGEMM(b));
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.ToTriplets()[0].row, 1);
  EXPECT_EQ(c.ToTriplets()[0].value, 2.0);
}

TEST(CsrEngineTest, PageRankAndBfsBitEqualFrozenLoops) {
  ThreadGuard guard;
  for (uint64_t seed : {23, 24}) {
    Rng rng(seed);
    std::vector<int64_t> src, dst;
    // Duplicate edges, self-loops and dangling nodes (ids 50..59 only ever
    // appear as targets).
    for (int i = 0; i < 300; ++i) {
      src.push_back(rng.NextInt(0, 49));
      dst.push_back(rng.NextInt(0, 59));
    }
    graph::CsrGraph g = graph::CsrGraph::FromEdges(src, dst);
    graph::PageRankOptions opts;
    opts.max_iters = 30;
    graph::PageRankResult pr_want = FrozenPageRank(g, opts);
    for (int threads : {1, 4}) {
      SetThreadCount(threads);
      for (int64_t s : {0, 7, 55}) {
        EXPECT_EQ(graph::Bfs(g, s), FrozenBfs(g, s))
            << "source=" << s << " threads=" << threads;
      }
      graph::PageRankResult pr = graph::PageRank(g, opts);
      EXPECT_EQ(pr.iterations, pr_want.iterations);
      EXPECT_EQ(std::bit_cast<uint64_t>(pr.final_delta),
                std::bit_cast<uint64_t>(pr_want.final_delta));
      ExpectBitEqual(pr.rank, pr_want.rank,
                     "PageRank threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizer recognition.
// ---------------------------------------------------------------------------

TEST(LowerSemiringPassTest, CountsLowerableOps) {
  PlanPtr agg = Plan::Aggregate(Plan::Scan("t"), {"g"},
                                {AggSpec{AggFunc::kSum, Col("v"), "s"}});
  EXPECT_TRUE(SemiringLowerable(*agg));
  EXPECT_EQ(CountLowerableOps(*agg), 1);
  PlanPtr avg = Plan::Aggregate(Plan::Scan("t"), {"g"},
                                {AggSpec{AggFunc::kAvg, Col("v"), "m"}});
  EXPECT_TRUE(SemiringLowerable(*avg));  // the (sum, count) `+` fold
  EXPECT_EQ(CountLowerableOps(*avg), 1);
  PlanPtr mm = Plan::MatMul(Plan::Scan("a"), Plan::Scan("b"));
  EXPECT_TRUE(SemiringLowerable(*mm));
  // Nested: Aggregate over MatMul counts both.
  PlanPtr both = Plan::Aggregate(mm, {"i"},
                                 {AggSpec{AggFunc::kSum, Col("v"), "s"}});
  EXPECT_EQ(CountLowerableOps(*both), 2);
}

}  // namespace
}  // namespace nexus
