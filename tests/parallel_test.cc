// Unit tests for the shared morsel scheduler (common/parallel.h): coverage,
// determinism of the decomposition, sequential fallback, nesting, and the
// engine-level byte-identity the determinism contract promises.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "algebra/kernels.h"
#include "common/query_profile.h"
#include "common/random.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "linalg/dense.h"
#include "relational/engine.h"
#include "tests/test_util.h"

namespace nexus {
namespace {

using namespace nexus::exprs;  // NOLINT
using testing::F;
using testing::I;
using testing::MakeSchema;
using testing::N;
using testing::S;

// Restores the process-wide budget however the test exits.
struct ThreadCountGuard {
  ThreadCountGuard() : saved(GetThreadCount()) {}
  ~ThreadCountGuard() { SetThreadCount(saved); }
  int saved;
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 4, 8}) {
    SetThreadCount(threads);
    const int64_t n = 100001;
    std::vector<int> hits(static_cast<size_t>(n), 0);
    ParallelFor(n, 1000, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0LL), n)
        << "threads=" << threads;
    EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
    EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
  }
}

TEST(ParallelForTest, SequentialBudgetRunsInlineAsOneRange) {
  ThreadCountGuard guard;
  SetThreadCount(1);
  std::atomic<int> calls{0};
  int64_t seen_begin = -1, seen_end = -1;
  ParallelFor(100000, 1000, [&](int64_t begin, int64_t end) {
    ++calls;
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 0);
  EXPECT_EQ(seen_end, 100000);
}

TEST(ParallelForTest, MorselBoundariesIgnoreThreadCount) {
  ThreadCountGuard guard;
  // Slot-indexed writes (slot = begin / grain) must land identically at any
  // budget — this is what every engine's merge step leans on.
  const int64_t n = 10000, grain = 256;
  auto run = [&](int threads) {
    SetThreadCount(threads);
    std::vector<std::pair<int64_t, int64_t>> slots(
        static_cast<size_t>((n + grain - 1) / grain), {-1, -1});
    ParallelFor(n, grain, [&](int64_t begin, int64_t end) {
      slots[static_cast<size_t>(begin / grain)] = {begin, end};
    });
    return slots;
  };
  auto want = run(2);
  for (int threads : {3, 4, 8}) {
    EXPECT_EQ(run(threads), want) << "threads=" << threads;
  }
}

TEST(ParallelForTest, EmptyAndTinyJobs) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, [&](int64_t begin, int64_t end) { sum += end - begin; });
  EXPECT_EQ(sum.load(), 0);
  ParallelFor(3, 100, [&](int64_t begin, int64_t end) { sum += end - begin; });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelRunTest, RunsEveryTaskOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    std::vector<std::atomic<int>> ran(17);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < ran.size(); ++i) {
      tasks.push_back([&ran, i] { ++ran[i]; });
    }
    ParallelRun(tasks);
    for (size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "task " << i << " threads=" << threads;
    }
  }
}

TEST(ParallelRunTest, SequentialBudgetPreservesIndexOrder) {
  ThreadCountGuard guard;
  SetThreadCount(1);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  ParallelRun(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelMorselsTest, ResultsCoverTheRangeInMorselOrder) {
  ThreadCountGuard guard;
  using Range = std::pair<int64_t, int64_t>;
  const int64_t n = 3 * kMorselRows + 5;
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    ASSERT_OK_AND_ASSIGN(
        std::vector<Range> ranges,
        ParallelMorsels<Range>(
            n, [](int64_t begin, int64_t end) { return Range(begin, end); }));
    // Inline: one result for [0, n); pooled: one per morsel, in order.
    ASSERT_EQ(ranges.size(), threads == 1 ? 1u : 4u) << "threads=" << threads;
    int64_t next = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, next) << "threads=" << threads;
      next = end;
    }
    EXPECT_EQ(next, n) << "threads=" << threads;
  }
}

TEST(ParallelMorselsTest, CancelledRegionReturnsTheCancelStatus) {
  ThreadCountGuard guard;
  CancelToken token;
  TaskContext ctx;
  ctx.cancel = &token;
  ScopedTaskContext scoped(&ctx);
  token.Cancel(StatusCode::kTimeout, "stop before the region starts");
  // Skipped morsels never shorten the result: the caller gets the token's
  // status on the inline and on the pooled path.
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    Result<std::vector<int64_t>> out = ParallelMorsels<int64_t>(
        4 * kMorselRows, [](int64_t begin, int64_t end) { return end - begin; });
    ASSERT_FALSE(out.ok()) << "threads=" << threads;
    EXPECT_EQ(out.status().code(), StatusCode::kTimeout);
  }
}

TEST(ParallelForTest, NestedRegionsDoNotDeadlock) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  std::atomic<int64_t> total{0};
  ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ParallelFor(1000, 100,
                  [&](int64_t b, int64_t e) { total += e - b; });
    }
  });
  EXPECT_EQ(total.load(), 8 * 1000);
}

TEST(ThreadCountTest, SetGetRoundTripAndClamping) {
  ThreadCountGuard guard;
  SetThreadCount(3);
  EXPECT_EQ(GetThreadCount(), 3);
  SetThreadCount(kMaxThreads + 100);
  EXPECT_EQ(GetThreadCount(), kMaxThreads);
  // 0 resets to the process default: NEXUS_THREADS when set, else the
  // hardware count — either way it's in [1, kMaxThreads].
  SetThreadCount(0);
  EXPECT_GE(GetThreadCount(), 1);
  EXPECT_LE(GetThreadCount(), kMaxThreads);
  if (std::getenv("NEXUS_THREADS") == nullptr) {
    EXPECT_EQ(GetThreadCount(), HardwareThreads());
  }
  EXPECT_GE(HardwareThreads(), 1);
  EXPECT_LE(HardwareThreads(), kMaxThreads);
}

TEST(ThreadCountTest, StatsCountMorselsAndRegions) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  ParallelStats before = GetParallelStats();
  ParallelFor(10 * kMorselRows, kMorselRows, [](int64_t, int64_t) {});
  ParallelStats after = GetParallelStats();
  EXPECT_GE(after.morsels - before.morsels, 10);
}

// ---------------------------------------------------------------------------
// Engine-level byte-identity: the determinism contract applied to the two
// kernels with the trickiest merges (join pair order, aggregate group order).
// ---------------------------------------------------------------------------

TablePtr RandomFacts(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_OK(b.AppendRow(
        {I(rng.NextInt(0, rows / 64 + 1)), F(rng.NextDouble(0, 100))}));
  }
  return b.Finish().ValueOrDie();
}

// Keys that stress the hash index: duplicate keys, null keys, the float
// keys -0.0, +0.0 and NaN, and strings. Key values come from [0, distinct].
TablePtr HardKeys(int64_t rows, int64_t distinct, uint64_t seed) {
  Rng rng(seed);
  SchemaPtr s = MakeSchema({Field::Attr("k", DataType::kInt64),
                            Field::Attr("f", DataType::kFloat64),
                            Field::Attr("s", DataType::kString),
                            Field::Attr("v", DataType::kFloat64)});
  TableBuilder b(s);
  for (int64_t i = 0; i < rows; ++i) {
    int64_t key = rng.NextInt(0, distinct);
    Value f = key == 0   ? F(-0.0)
              : key == 1 ? F(0.0)
              : key == 2 ? F(std::nan(""))
              : key % 17 == 3 ? N()
                              : F(static_cast<double>(key) * 0.5);
    EXPECT_OK(b.AppendRow({key % 11 == 0 ? N() : I(key), f,
                           key % 13 == 0 ? N() : S(StrCat("s", key)),
                           F(rng.NextDouble(0, 100))}));
  }
  return b.Finish().ValueOrDie();
}

// Runs `fn` at one thread in memory, then at 2/4/8 threads and under a
// small spill budget (the index then runs inside Grace partitions), and
// expects every run to return the identical table.
template <typename Fn>
void ExpectIdenticalEverywhere(const std::string& what, Fn fn) {
  ThreadCountGuard guard;
  SetThreadCount(1);
  TablePtr want = fn();
  for (int threads : {2, 4, 8}) {
    SetThreadCount(threads);
    EXPECT_TRUE(fn()->Equals(*want)) << what << " threads=" << threads;
  }
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    testing::ScopedBudget budget(64 * 1024);
    ScopedQuery query;
    EXPECT_TRUE(fn()->Equals(*want)) << what << " spilled, threads=" << threads;
    EXPECT_GT(query.profile()[QueryStat::kSpillOps], 0) << what;
  }
}

TEST(EngineParallelTest, HashJoinByteIdenticalAcrossThreadCounts) {
  TablePtr probe = RandomFacts(40000, 21);
  TablePtr build =
      relational::Rename(RandomFacts(5000, 22), {{"k", "bk"}, {"v", "bv"}})
          .ValueOrDie();
  JoinOp op;
  op.left_keys = {"k"};
  op.right_keys = {"bk"};
  ExpectIdenticalEverywhere("int facts", [&] {
    return relational::HashJoin(probe, build, op).ValueOrDie();
  });

  // Hard keys: ~8 build rows per key, so every probe hits duplicates.
  TablePtr hard = HardKeys(40000, 600, 31);
  TablePtr hard_build =
      relational::Rename(HardKeys(5000, 600, 32),
                         {{"k", "bk"}, {"f", "bf"}, {"s", "bs"}, {"v", "bv"}})
          .ValueOrDie();
  const std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      keys = {{{"k"}, {"bk"}},
              {{"f"}, {"bf"}},
              {{"s"}, {"bs"}},
              {{"k", "s"}, {"bk", "bs"}}};
  for (const auto& [lk, rk] : keys) {
    JoinOp hop;
    hop.left_keys = lk;
    hop.right_keys = rk;
    ExpectIdenticalEverywhere("join on " + lk[0], [&] {
      return relational::HashJoin(hard, hard_build, hop).ValueOrDie();
    });
  }
}

TEST(EngineParallelTest, HashAggregateByteIdenticalAcrossThreadCounts) {
  TablePtr t = RandomFacts(120000, 23);
  AggregateOp op;
  op.group_by = {"k"};
  op.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
             AggSpec{AggFunc::kMin, Col("v"), "mn"},
             AggSpec{AggFunc::kCount, nullptr, "n"}};
  ExpectIdenticalEverywhere("int facts", [&] {
    return algebra::LowerAggregate(t, op).ValueOrDie();
  });

  TablePtr hard = HardKeys(120000, 3000, 33);
  for (const std::vector<std::string>& group_by :
       std::vector<std::vector<std::string>>{{"k"}, {"f"}, {"s"}, {"k", "s"}}) {
    AggregateOp hop = op;
    hop.group_by = group_by;
    ExpectIdenticalEverywhere("group by " + group_by[0], [&] {
      return algebra::LowerAggregate(hard, hop).ValueOrDie();
    });
  }
}

TEST(EngineParallelTest, MatMulBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(29);
  const int64_t n = 96;
  linalg::DenseMatrix a(n, n), b(n, n);
  for (double& v : a.data()) v = rng.NextDouble(-1, 1);
  for (double& v : b.data()) v = rng.NextDouble(-1, 1);
  SetThreadCount(1);
  linalg::DenseMatrix want = linalg::MatMulBlocked(a, b, 32).ValueOrDie();
  for (int threads : {2, 4, 8}) {
    SetThreadCount(threads);
    linalg::DenseMatrix got = linalg::MatMulBlocked(a, b, 32).ValueOrDie();
    EXPECT_EQ(got.data(), want.data()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace nexus
