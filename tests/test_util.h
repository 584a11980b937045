// Shared helpers for the nexus test suite.
#ifndef NEXUS_TESTS_TEST_UTIL_H_
#define NEXUS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/parallel.h"
#include "core/plan.h"
#include "expr/builder.h"
#include "types/table.h"

namespace nexus {
namespace testing {

/// Builds a schema from fields, aborting on invalid specs (tests only).
inline SchemaPtr MakeSchema(std::vector<Field> fields) {
  auto r = Schema::Make(std::move(fields));
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOrDie();
}

/// Builds a table from rows of boxed values.
inline TablePtr MakeTable(SchemaPtr schema,
                          const std::vector<std::vector<Value>>& rows) {
  TableBuilder b(schema);
  for (const auto& row : rows) {
    auto st = b.AppendRow(row);
    EXPECT_TRUE(st.ok()) << st;
  }
  auto r = b.Finish();
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOrDie();
}

/// A standalone query's memory meter: what a governed query gets from its
/// tenant, for tests that run operators without the service stack. Its
/// SpillBudget() is the operators' spill threshold (0 = never spill). It
/// records charges and releases exactly as reported, unclamped, so tests
/// can check the operators' own net accounting.
class BudgetMeter : public MemoryMeter {
 public:
  explicit BudgetMeter(int64_t spill_budget) : budget_(spill_budget) {}
  void Charge(int64_t bytes) override {
    charged_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void Release(int64_t bytes) override {
    released_.fetch_add(bytes, std::memory_order_relaxed);
  }
  int64_t SpillBudget() const override { return budget_; }
  int64_t charged() const { return charged_.load(std::memory_order_relaxed); }
  int64_t released() const { return released_.load(std::memory_order_relaxed); }

 private:
  const int64_t budget_;
  std::atomic<int64_t> charged_{0};
  std::atomic<int64_t> released_{0};
};

/// Runs the scope under a BudgetMeter with `spill_budget`: installs a copy
/// of the thread's TaskContext with the meter swapped in, so operators (and
/// the pool workers they fan out to) spill when a working set crosses it.
class ScopedBudget {
 public:
  explicit ScopedBudget(int64_t spill_budget)
      : meter_(spill_budget), ctx_(WithMeter(&meter_)), scope_(&ctx_) {}
  const BudgetMeter& meter() const { return meter_; }

 private:
  static TaskContext WithMeter(MemoryMeter* meter) {
    const TaskContext* current = CurrentTaskContext();
    TaskContext ctx = current != nullptr ? *current : TaskContext{};
    ctx.meter = meter;
    return ctx;
  }
  BudgetMeter meter_;
  TaskContext ctx_;
  ScopedTaskContext scope_;
};

/// Table::Equals takes NaN for any number and -0.0 for +0.0; this also
/// holds every float64 cell to its bit pattern.
inline void ExpectSameBits(const Table& got, const Table& want) {
  ASSERT_TRUE(got.Equals(want)) << "got:\n"
                                << got.ToString() << "want:\n"
                                << want.ToString();
  for (int c = 0; c < got.num_columns(); ++c) {
    const Column& g = got.column(c);
    if (g.type() != DataType::kFloat64) continue;
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      if (g.IsNull(r)) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(g.doubles()[static_cast<size_t>(r)]),
                std::bit_cast<uint64_t>(
                    want.column(c).doubles()[static_cast<size_t>(r)]))
          << "column " << c << " row " << r;
    }
  }
}

/// Shorthand value constructors.
inline Value I(int64_t v) { return Value::Int64(v); }
inline Value F(double v) { return Value::Float64(v); }
inline Value S(std::string v) { return Value::String(std::move(v)); }
inline Value B(bool v) { return Value::Bool(v); }
inline Value N() { return Value::Null(); }

/// A plan with a short name for test output.
struct NamedPlan {
  std::string name;
  PlanPtr plan;
};

/// At least one plan per OpKind, with the edge cases of each operator's
/// fields: join with and without a residual, count(*), limit with an
/// offset, negative offsets and ranges, loopvar prev, iterate with and
/// without a measure, both exchange modes, a descending sort key, PageRank
/// with non-default floats, and a Values plan with nulls in every column.
inline std::vector<NamedPlan> PlanPerOpKind() {
  using namespace nexus::exprs;  // NOLINT
  PlanPtr emp = Plan::Scan("emp");
  PlanPtr dept = Plan::Scan("dept");
  PlanPtr grid = Plan::Scan("grid");
  TablePtr values = MakeTable(
      MakeSchema({Field::Attr("k", DataType::kInt64),
                  Field::Attr("v", DataType::kFloat64),
                  Field::Attr("s", DataType::kString),
                  Field::Attr("b", DataType::kBool)}),
      {{I(1), F(2.5), S("a b"), B(true)},
       {I(-7), N(), S("q\"uote"), N()},
       {N(), F(-0.125), N(), B(false)}});
  PageRankOp pagerank;
  pagerank.src_col = "from";
  pagerank.dst_col = "to";
  pagerank.damping = 0.9;
  pagerank.max_iters = 25;
  pagerank.epsilon = 1e-6;
  IterateOp with_measure;
  with_measure.body = Plan::Extend(Plan::LoopVar(), {{"v", Mul(Col("v"), Lit(0.5))}});
  with_measure.measure = Plan::Aggregate(Plan::LoopVar(true), {},
                                         {AggSpec{AggFunc::kSum, Col("v"), "delta"}});
  with_measure.epsilon = 1e-3;
  with_measure.max_iters = 40;
  IterateOp no_measure;
  no_measure.body = Plan::Select(Plan::LoopVar(), Gt(Col("v"), Lit(0)));
  no_measure.max_iters = 3;
  return {
      {"scan", emp},
      {"values", Plan::Values(Dataset(values))},
      {"loopvar", Plan::LoopVar()},
      {"loopvar_prev", Plan::LoopVar(true)},
      {"select", Plan::Select(emp, And(Gt(Col("age"), Lit(30)), Not(Col("retired"))))},
      {"project", Plan::Project(emp, {"name", "age"})},
      {"extend", Plan::Extend(emp, {{"x", Add(Col("a"), Lit(1.5))},
                                    {"y", Func("pow", {Col("a"), Lit(2)})}})},
      {"join", Plan::Join(emp, dept, JoinType::kInner, {"dept_id"}, {"id"})},
      {"join_residual",
       Plan::Join(emp, dept, JoinType::kLeft, {"dept_id", "site"}, {"id", "site"},
                  Gt(Col("salary"), Col("budget")))},
      {"aggregate",
       Plan::Aggregate(emp, {"dept", "site"},
                       {AggSpec{AggFunc::kSum, Col("salary"), "total"},
                        AggSpec{AggFunc::kCount, nullptr, "n"},
                        AggSpec{AggFunc::kAvg, Add(Col("a"), Col("b")), "mean"}})},
      {"sort", Plan::Sort(emp, {{"dept", true}, {"salary", false}})},
      {"limit", Plan::Limit(emp, 10, 5)},
      {"distinct", Plan::Distinct(emp)},
      {"union", Plan::Union(emp, Plan::Scan("emp2"))},
      {"rename", Plan::Rename(emp, {{"a", "b"}, {"c", "d"}})},
      {"rebox", Plan::Rebox(grid, {"i", "j"}, 32)},
      {"unbox", Plan::Unbox(grid)},
      {"slice", Plan::Slice(grid, {{"i", 0, 10}, {"j", -5, 5}})},
      {"shift", Plan::Shift(grid, {{"i", 3}, {"j", -2}})},
      {"regrid", Plan::Regrid(grid, {{"i", 4}, {"j", 2}}, AggFunc::kSum)},
      {"transpose", Plan::Transpose(grid, {"j", "i"})},
      {"window", Plan::Window(grid, {{"i", 1}, {"j", 2}}, AggFunc::kMax)},
      {"elemwise", Plan::ElemWise(grid, Plan::Scan("grid2"), BinaryOp::kMul)},
      {"matmul", Plan::MatMul(Plan::Scan("A"), Plan::Scan("B"), "prod")},
      {"pagerank", Plan::PageRank(Plan::Scan("edges"), pagerank)},
      {"iterate", Plan::Iterate(Plan::Scan("state0"), with_measure)},
      {"iterate_no_measure", Plan::Iterate(Plan::Scan("s"), no_measure)},
      {"exchange", Plan::Exchange(emp, "arraydb", TransferMode::kDirect)},
      {"exchange_relay", Plan::Exchange(emp, "client", TransferMode::kRelay)},
  };
}

/// The line of rendered QueryProfile text (an EXPLAIN ANALYZE trailer)
/// that holds `group`'s stats ("coordinator: fragments=3 ..."), or "".
inline std::string ProfileLine(const std::string& text,
                               const std::string& group) {
  const std::string head = group + ":";
  for (size_t at = 0; at < text.size();) {
    size_t eol = text.find('\n', at);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(at, head.size(), head) == 0) {
      return text.substr(at, eol - at);
    }
    at = eol + 1;
  }
  return "";
}

/// The value of `name` in a ProfileLine ("delta_bindings=7" -> 7), or 0
/// when the line does not list it (the renderer omits zeros).
inline int64_t ProfileValue(const std::string& line, const std::string& name) {
  const std::string key = " " + name + "=";
  size_t at = line.find(key);
  return at == std::string::npos ? 0
                                 : std::stoll(line.substr(at + key.size()));
}

}  // namespace testing
}  // namespace nexus

#define ASSERT_OK(expr)                                \
  do {                                                 \
    auto _assert_status = (expr);                      \
    ASSERT_TRUE(_assert_status.ok()) << _assert_status; \
  } while (0)

#define EXPECT_OK(expr)                                \
  do {                                                 \
    auto _expect_status = (expr);                      \
    EXPECT_TRUE(_expect_status.ok()) << _expect_status; \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                 \
  auto NEXUS_CONCAT(_res_, __LINE__) = (expr);          \
  ASSERT_TRUE(NEXUS_CONCAT(_res_, __LINE__).ok())       \
      << NEXUS_CONCAT(_res_, __LINE__).status();        \
  lhs = NEXUS_CONCAT(_res_, __LINE__).MoveValue()

#endif  // NEXUS_TESTS_TEST_UTIL_H_
