// Tests for the out-of-core subsystem: scratch-file RAII, the Grace
// partitioner's coverage/recursion invariants, and — the acceptance
// contract — byte-identity of spilled vs in-memory execution for the
// relational and algebra operators at every thread count and budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <vector>

#include "algebra/assoc_array.h"
#include "algebra/kernels.h"
#include "algebra/semiring.h"
#include "arraydb/engine.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "exec/spill/chunk_pager.h"
#include "exec/spill/spill.h"
#include "expr/builder.h"
#include "federation/coordinator.h"
#include "relational/engine.h"
#include "tests/test_util.h"
#include "types/ndarray.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using algebra::AssocArray;
using algebra::Semiring;
using spill::PartitionedSpiller;
using spill::SpillFile;
using spill::SpillInput;
using spill::SpillManager;
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::MakeTable;
using testing::N;
using testing::S;
using testing::ScopedBudget;

/// Restores the thread count on exit.
struct SpillGuard {
  int saved_threads = GetThreadCount();
  ~SpillGuard() { SetThreadCount(saved_threads); }
};

const Semiring& Ring(const std::string& name) {
  const Semiring* s = algebra::FindSemiring(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// A mixed-type table with duplicate keys, null keys, and null payloads —
/// the shapes that stress partition routing and merge order.
TablePtr RandomTable(uint64_t seed, int64_t rows, int64_t key_range) {
  Rng rng(seed);
  SchemaPtr schema = MakeSchema({Field::Attr("k", DataType::kInt64),
                                 Field::Attr("tag", DataType::kString),
                                 Field::Attr("v", DataType::kFloat64)});
  std::vector<std::vector<Value>> out;
  out.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    Value k = rng.NextBounded(20) == 0 ? N() : I(rng.NextInt(0, key_range - 1));
    Value tag = S(rng.NextBounded(2) == 0 ? "red" : "blue");
    Value v = rng.NextBounded(25) == 0
                  ? N()
                  : F(static_cast<double>(rng.NextInt(-1000, 1000)) / 8.0);
    out.push_back({k, tag, v});
  }
  return MakeTable(schema, out);
}

// ---------------------------------------------------------------------------
// Scratch files.
// ---------------------------------------------------------------------------

TEST(SpillFileTest, RoundTripsFramesAndUnlinksOnDestruction) {
  SpillGuard guard;
  SchemaPtr schema = MakeSchema({Field::Attr("a", DataType::kInt64),
                                 Field::Attr("b", DataType::kString)});
  TablePtr t1 = MakeTable(schema, {{I(1), S("x")}, {I(2), N()}});
  TablePtr t2 = MakeTable(schema, {{I(3), S("y")}});

  std::string path;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                         SpillManager::Global().Create("test"));
    path = file->path();
    ASSERT_OK(file->Append(t1));
    ASSERT_OK(file->Append(t2));
    EXPECT_EQ(file->frames(), 2);
    EXPECT_EQ(file->rows(), 3);
    EXPECT_GT(file->bytes_written(), 0);
    EXPECT_GE(SpillManager::Global().live_files(), 1);
    EXPECT_TRUE(std::filesystem::exists(path));

    // Frames stream back in append order.
    std::vector<TablePtr> frames;
    ASSERT_OK(file->ForEachFrame([&](TablePtr t) {
      frames.push_back(std::move(t));
      return Status::OK();
    }));
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_TRUE(frames[0]->Equals(*t1));
    EXPECT_TRUE(frames[1]->Equals(*t2));

    // ReadAll concatenates.
    ASSERT_OK_AND_ASSIGN(TablePtr all, file->ReadAll(schema));
    ASSERT_EQ(all->num_rows(), 3);
    EXPECT_EQ(all->column(0).GetValue(2), I(3));
    EXPECT_TRUE(all->column(1).IsNull(1));
  }
  // RAII: the handle's death unlinked the scratch file.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillFileTest, ReadAllOfEmptyFileYieldsEmptyTableWithSchema) {
  SpillGuard guard;
  SchemaPtr schema = MakeSchema({Field::Attr("a", DataType::kInt64)});
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                       SpillManager::Global().Create("empty"));
  ASSERT_OK_AND_ASSIGN(TablePtr all, file->ReadAll(schema));
  EXPECT_EQ(all->num_rows(), 0);
  EXPECT_EQ(all->num_columns(), 1);
}

TEST(SpillFileTest, CreateAfterSweepRecreatesTheScratchDirectory) {
  // A Server's shutdown sweeps scratch and removes the emptied directory;
  // a later query in the same process must still be able to spill.
  { ASSERT_OK(SpillManager::Global().Create("before").status()); }
  SpillManager::Global().Sweep();
  EXPECT_FALSE(std::filesystem::exists(SpillManager::Global().scratch_dir()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                       SpillManager::Global().Create("after"));
  EXPECT_TRUE(std::filesystem::exists(file->path()));
}

// ---------------------------------------------------------------------------
// The Grace partitioner.
// ---------------------------------------------------------------------------

TEST(PartitionedSpillerTest, EveryRowLandsInExactlyOnePartitionWithItsHash) {
  SpillGuard guard;
  TablePtr t = RandomTable(/*seed=*/7, /*rows=*/500, /*key_range=*/64);
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> hashes,
                       relational::HashRows(*t, {0}));

  PartitionedSpiller::Options opts;
  opts.budget_bytes = 2048;  // far below the table size → real partitioning
  opts.frame_rows = 64;      // several frames per partition file
  opts.tag = "cover";
  PartitionedSpiller spiller(&SpillManager::Global(), opts);

  std::set<int64_t> seen;
  int64_t parts_with_rows = 0;
  ASSERT_OK(spiller.Run(
      {SpillInput{t, &hashes}}, [&](const std::vector<TablePtr>& parts) {
        EXPECT_EQ(parts.size(), 1u);
        const TablePtr& p = parts[0];
        if (p->num_rows() > 0) ++parts_with_rows;
        // Augmented layout: original columns then __spill_row, __spill_hash.
        EXPECT_EQ(p->num_columns(), t->num_columns() + 2);
        const auto& rows = p->column(p->num_columns() - 2).ints();
        const auto& hbits = p->column(p->num_columns() - 1).ints();
        int64_t prev = -1;
        for (size_t i = 0; i < rows.size(); ++i) {
          // Rows ascend by original index within a partition.
          EXPECT_GT(rows[i], prev);
          prev = rows[i];
          EXPECT_TRUE(seen.insert(rows[i]).second) << "row seen twice";
          EXPECT_EQ(static_cast<uint64_t>(hbits[i]),
                    hashes[static_cast<size_t>(rows[i])]);
          // Original columns ride along unchanged.
          EXPECT_EQ(p->column(2).GetValue(static_cast<int64_t>(i)),
                    t->column(2).GetValue(rows[i]));
        }
        return Status::OK();
      }));
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_GT(parts_with_rows, 1);
  EXPECT_GT(spiller.stats().partitions, 1);
  EXPECT_GT(spiller.stats().bytes_spilled, 0);
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

TEST(PartitionedSpillerTest, SkewedPartitionsRecurseWithSaltedHash) {
  SpillGuard guard;
  TablePtr t = RandomTable(/*seed=*/11, /*rows=*/800, /*key_range=*/512);
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> hashes,
                       relational::HashRows(*t, {0}));

  PartitionedSpiller::Options opts;
  opts.budget_bytes = 512;   // level-0 partitions stay far over budget...
  opts.max_partitions = 2;   // ...because the fan-out is pinned tiny
  opts.frame_rows = 64;
  opts.tag = "recurse";
  PartitionedSpiller spiller(&SpillManager::Global(), opts);

  std::set<int64_t> seen;
  ASSERT_OK(spiller.Run(
      {SpillInput{t, &hashes}}, [&](const std::vector<TablePtr>& parts) {
        for (int64_t v : parts[0]->column(parts[0]->num_columns() - 2).ints())
          EXPECT_TRUE(seen.insert(v).second);
        return Status::OK();
      }));
  EXPECT_EQ(seen.size(), 800u);  // recursion loses and duplicates nothing
  EXPECT_GT(spiller.stats().recursions, 0);
  EXPECT_GT(spiller.stats().max_depth, 0);
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

TEST(PartitionedSpillerTest, CoPartitionsMultipleInputsByTheSameKeySpace) {
  SpillGuard guard;
  TablePtr a = RandomTable(3, 300, 32);
  TablePtr b = RandomTable(4, 200, 32);
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> ah, relational::HashRows(*a, {0}));
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> bh, relational::HashRows(*b, {0}));

  PartitionedSpiller::Options opts;
  opts.budget_bytes = 4096;
  opts.tag = "pair";
  PartitionedSpiller spiller(&SpillManager::Global(), opts);

  int64_t a_rows = 0, b_rows = 0;
  ASSERT_OK(spiller.Run(
      {SpillInput{a, &ah}, SpillInput{b, &bh}},
      [&](const std::vector<TablePtr>& parts) {
        EXPECT_EQ(parts.size(), 2u);
        a_rows += parts[0]->num_rows();
        b_rows += parts[1]->num_rows();
        // Co-partitioning: both sides of a partition hold the same hash set
        // modulo the fan-out, so no hash in one side's complement appears.
        std::set<int64_t> ahs(parts[0]->column(4).ints().begin(),
                              parts[0]->column(4).ints().end());
        std::set<int64_t> bhs(parts[1]->column(4).ints().begin(),
                              parts[1]->column(4).ints().end());
        // Shared keys hash equally, so equal values must co-locate: check
        // that every hash present on both sides landed in the same leaf.
        for (int64_t h : bhs)
          if (ahs.count(h)) SUCCEED();
        return Status::OK();
      }));
  EXPECT_EQ(a_rows, 300);
  EXPECT_EQ(b_rows, 200);
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

// ---------------------------------------------------------------------------
// Relational byte-identity: spilled == in-memory, any threads, any budget.
// ---------------------------------------------------------------------------

/// Right-side table for joins: key plus distinctly named payloads (the
/// join's output schema is left fields then right non-key fields, so the
/// non-key names must not collide).
TablePtr RandomRight(uint64_t seed, int64_t rows, int64_t key_range) {
  Rng rng(seed);
  SchemaPtr schema = MakeSchema({Field::Attr("k", DataType::kInt64),
                                 Field::Attr("w", DataType::kFloat64)});
  std::vector<std::vector<Value>> out;
  for (int64_t i = 0; i < rows; ++i) {
    Value k = rng.NextBounded(20) == 0 ? N() : I(rng.NextInt(0, key_range - 1));
    Value w = rng.NextBounded(25) == 0
                  ? N()
                  : F(static_cast<double>(rng.NextInt(-500, 500)) / 4.0);
    out.push_back({k, w});
  }
  return MakeTable(schema, out);
}

JoinOp InnerJoin() {
  JoinOp op;
  op.left_keys = {"k"};
  op.right_keys = {"k"};
  return op;
}

TEST(SpillIdentityTest, HashJoinAllTypesMatchInMemoryResult) {
  SpillGuard guard;
  TablePtr left = RandomTable(21, 400, 48);
  TablePtr right = RandomRight(22, 300, 48);

  for (JoinType jt :
       {JoinType::kInner, JoinType::kLeft, JoinType::kSemi, JoinType::kAnti}) {
    JoinOp op = InnerJoin();
    op.type = jt;
    if (jt == JoinType::kInner) op.residual = Gt(Col("v"), Lit(-200.0));

    SetThreadCount(1);
    ASSERT_OK_AND_ASSIGN(TablePtr expect, relational::HashJoin(left, right, op));

    for (int threads : {1, 4}) {
      for (int64_t budget : {int64_t{1}, int64_t{4096}}) {
        SetThreadCount(threads);
        ScopedBudget scope(budget);
        ASSERT_OK_AND_ASSIGN(TablePtr got,
                             relational::HashJoin(left, right, op));
        EXPECT_TRUE(got->Equals(*expect))
            << "join type " << static_cast<int>(jt) << " threads " << threads
            << " budget " << budget;
      }
    }
  }
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

TEST(SpillIdentityTest, HashAggregateMatchesFirstSeenGroupOrder) {
  SpillGuard guard;
  TablePtr input = RandomTable(31, 600, 40);

  AggregateOp op;
  op.group_by = {"k", "tag"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kCount, nullptr, "n"},
             AggSpec{AggFunc::kMin, Col("v"), "lo"},
             AggSpec{AggFunc::kMax, Col("v"), "hi"},
             AggSpec{AggFunc::kAvg, Col("v"), "mean"}};

  SetThreadCount(1);
  ASSERT_OK_AND_ASSIGN(TablePtr expect, algebra::LowerAggregate(input, op));

  for (int threads : {1, 4}) {
    for (int64_t budget : {int64_t{1}, int64_t{512}, int64_t{2048}}) {
      SetThreadCount(threads);
      ScopedBudget scope(budget);
      ASSERT_OK_AND_ASSIGN(TablePtr got, algebra::LowerAggregate(input, op));
      EXPECT_TRUE(got->Equals(*expect))
          << "threads " << threads << " budget " << budget;
    }
  }
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

TEST(SpillIdentityTest, UngroupedAggregateIgnoresSpillPolicy) {
  SpillGuard guard;
  TablePtr input = RandomTable(41, 100, 10);
  AggregateOp op;
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kCount, nullptr, "n"}};

  ASSERT_OK_AND_ASSIGN(TablePtr expect, algebra::LowerAggregate(input, op));
  ScopedBudget scope(1);
  ASSERT_OK_AND_ASSIGN(TablePtr got, algebra::LowerAggregate(input, op));
  EXPECT_TRUE(got->Equals(*expect));
}

// ---------------------------------------------------------------------------
// Algebra byte-identity: ⊗-join and ⊕-reduce under the same budgets.
// ---------------------------------------------------------------------------

Result<AssocArray> RandomArray(uint64_t seed, int64_t rows, int64_t key_range) {
  Rng rng(seed);
  SchemaPtr schema = MakeSchema({Field::Attr("i", DataType::kInt64),
                                 Field::Attr("j", DataType::kInt64),
                                 Field::Attr("v", DataType::kFloat64)});
  std::vector<std::vector<Value>> out;
  for (int64_t r = 0; r < rows; ++r)
    out.push_back({I(rng.NextInt(0, key_range - 1)),
                   I(rng.NextInt(0, key_range - 1)),
                   F(static_cast<double>(rng.NextInt(1, 16)))});
  return AssocArray::FromTable(MakeTable(schema, out), {"i", "j"}, "v");
}

TEST(SpillIdentityTest, AlgebraJoinAndReduceMatchInMemory) {
  SpillGuard guard;
  const Semiring& sr = Ring("plus_times");
  ASSERT_OK_AND_ASSIGN(AssocArray a, RandomArray(51, 350, 24));
  ASSERT_OK_AND_ASSIGN(AssocArray b, RandomArray(52, 250, 24));

  SetThreadCount(1);
  ASSERT_OK_AND_ASSIGN(AssocArray join_expect, algebra::Join(a, b, sr));
  ASSERT_OK_AND_ASSIGN(AssocArray red_expect, algebra::Reduce(a, {"i"}, sr));

  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ScopedBudget scope(1);  // everything spills, maximally recursive
    ASSERT_OK_AND_ASSIGN(AssocArray join_got, algebra::Join(a, b, sr));
    ASSERT_OK_AND_ASSIGN(AssocArray red_got, algebra::Reduce(a, {"i"}, sr));
    EXPECT_TRUE(join_got.table()->Equals(*join_expect.table()))
        << "threads " << threads;
    EXPECT_TRUE(red_got.table()->Equals(*red_expect.table()))
        << "threads " << threads;
  }
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

// ---------------------------------------------------------------------------
// NDArray chunk eviction.
// ---------------------------------------------------------------------------

Result<std::shared_ptr<NDArray>> DenseGrid(int64_t n, int64_t chunk) {
  SchemaPtr attrs = MakeSchema({Field::Attr("v", DataType::kFloat64)});
  NEXUS_ASSIGN_OR_RETURN(
      std::shared_ptr<NDArray> a,
      NDArray::Make({DimensionSpec{"i", 0, n, chunk},
                     DimensionSpec{"j", 0, n, chunk}},
                    attrs));
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j)
      NEXUS_RETURN_NOT_OK(
          a->Set({i, j}, {F(static_cast<double>(i * n + j) / 4.0)}));
  return a;
}

TEST(ChunkEvictionTest, EvictedChunksFaultBackInByteIdentical) {
  SpillGuard guard;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<NDArray> a, DenseGrid(16, 4));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<NDArray> mirror, DenseGrid(16, 4));
  int64_t full_bytes = a->ResidentBytes();

  a->SetPager(std::make_shared<spill::SpillChunkPager>(&SpillManager::Global(),
                                                       "test"));
  ASSERT_OK_AND_ASSIGN(int64_t parked, a->EvictToBudget(full_bytes / 4));
  EXPECT_GT(parked, 0);
  EXPECT_EQ(a->EvictedChunks(), parked);
  EXPECT_LE(a->ResidentBytes(), full_bytes / 4);
  EXPECT_GT(SpillManager::Global().live_files(), 0);

  // Point access faults exactly the touched chunk back in.
  ASSERT_OK_AND_ASSIGN(std::vector<Value> cell, a->Get({15, 15}));
  EXPECT_EQ(cell[0], F(static_cast<double>(15 * 16 + 15) / 4.0));
  EXPECT_LT(a->EvictedChunks(), parked);

  // Whole-array reads see every cell, bit-for-bit.
  EXPECT_TRUE(a->Equals(*mirror));
  EXPECT_EQ(a->EvictedChunks(), 0);
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
  EXPECT_EQ(a->ResidentBytes(), full_bytes);
}

TEST(ChunkEvictionTest, ArrayOpsShedResultsUnderBudgetAndStayIdentical) {
  SpillGuard guard;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<NDArray> a, DenseGrid(16, 4));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<NDArray> b, DenseGrid(16, 4));

  SetThreadCount(1);
  ASSERT_OK_AND_ASSIGN(NDArrayPtr win_expect,
                       arraydb::Window(*a, {{"i", 1}, {"j", 1}}, AggFunc::kSum));
  ASSERT_OK_AND_ASSIGN(NDArrayPtr ew_expect,
                       arraydb::ElemWise(*a, *b, BinaryOp::kMul));

  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ScopedBudget scope(512);  // well under any result's size
    ASSERT_OK_AND_ASSIGN(
        NDArrayPtr win, arraydb::Window(*a, {{"i", 1}, {"j", 1}}, AggFunc::kSum));
    EXPECT_GT(win->EvictedChunks(), 0) << "result did not shed";
    EXPECT_TRUE(win->Equals(*win_expect)) << "threads " << threads;
    ASSERT_OK_AND_ASSIGN(NDArrayPtr ew, arraydb::ElemWise(*a, *b, BinaryOp::kMul));
    EXPECT_TRUE(ew->Equals(*ew_expect)) << "threads " << threads;
  }
  // Equals faulted everything back in; no scratch survives the reads.
  EXPECT_EQ(SpillManager::Global().live_files(), 0);
}

/// Parks chunk payloads but can never bring one back: the scratch store
/// went away underneath the array.
class LostScratchPager : public ChunkPager {
 public:
  Status PageOut(int64_t, ArrayChunk) override { return Status::OK(); }
  Result<ArrayChunk> PageIn(int64_t key) override {
    return Status::IOError(StrCat("scratch chunk ", key, " is gone"));
  }
  void Drop(int64_t) override {}
  int64_t paged_bytes() const override { return 0; }
};

TEST(ChunkEvictionTest, FailedPageInIsAnErrorNotATruncatedArray) {
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<NDArray> a,
      NDArray::Make({DimensionSpec{"i", 0, 8, 4}},
                    MakeSchema({Field::Attr("v", DataType::kFloat64)})));
  for (int64_t i = 0; i < 8; ++i) ASSERT_OK(a->Set({i}, {F(static_cast<double>(i))}));
  Cluster cluster;
  ASSERT_OK(cluster.AddServer("arraydb", MakeArrayProvider()));
  ASSERT_OK(cluster.AddServer("relstore", MakeRelationalProvider()));
  ASSERT_OK(cluster.PutData("arraydb", "A", Dataset(NDArrayPtr(a))));

  a->SetPager(std::make_shared<LostScratchPager>());
  ASSERT_OK(a->EvictChunk({1}));
  // Flattening must report the lost chunk, not return the 4 resident rows.
  auto flat = a->ToTable();
  ASSERT_FALSE(flat.ok()) << "got " << flat.ValueOrDie()->num_rows() << " rows";
  EXPECT_EQ(flat.status().code(), StatusCode::kIOError);

  // Shipping the array — to the client or to another server — surfaces the
  // same error instead of encoding a short table.
  Coordinator coord(&cluster);
  auto fetched = coord.Execute(Plan::Scan("A"));
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIOError);
  Status replicated = cluster.Replicate("A", "relstore");
  EXPECT_EQ(replicated.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Policy plumbing.
// ---------------------------------------------------------------------------

TEST(SpillPolicyTest, ShouldSpillAsksOnlyTheQueryMeter) {
  // No meter, no budget: never spill.
  EXPECT_FALSE(spill::ShouldSpill(1000));
  EXPECT_EQ(spill::SpillBudgetBytes(), 0);
  {
    ScopedBudget scope(100);
    EXPECT_EQ(spill::SpillBudgetBytes(), 100);
    EXPECT_TRUE(spill::ShouldSpill(1000));  // over budget
    EXPECT_FALSE(spill::ShouldSpill(50));   // under budget
    {
      ScopedBudget none(0);
      EXPECT_FALSE(spill::ShouldSpill(1000));  // a meter without a budget
    }
    EXPECT_TRUE(spill::ShouldSpill(1000));  // the outer meter is back
  }
  EXPECT_FALSE(spill::ShouldSpill(1000));

  // The governor's ask-to-spill wins even without a budget.
  struct AskedMeter : MemoryMeter {
    void Charge(int64_t) override {}
    bool SpillRequested() const override { return true; }
  } asked;
  TaskContext ctx;
  ctx.meter = &asked;
  ScopedTaskContext scope(&ctx);
  EXPECT_TRUE(spill::ShouldSpill(1));
}

}  // namespace
}  // namespace nexus
