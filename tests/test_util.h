// Shared helpers for the nexus test suite.
#ifndef NEXUS_TESTS_TEST_UTIL_H_
#define NEXUS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/parallel.h"
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

/// Shorthand value constructors.
inline Value I(int64_t v) { return Value::Int64(v); }
inline Value F(double v) { return Value::Float64(v); }
inline Value S(std::string v) { return Value::String(std::move(v)); }
inline Value B(bool v) { return Value::Bool(v); }
inline Value N() { return Value::Null(); }

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
