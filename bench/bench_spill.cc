// E18 — Out-of-core execution: Grace-style spilling join and aggregation
// under memory oversubscription. A probe run with a peak-tracking meter
// measures the in-memory working set of a hash join and a grouped
// aggregate; the spill arm then re-runs both under a meter whose spill
// budget is 8x smaller, so every operator must partition to NXB1 scratch
// and stream partition-at-a-time.
//
// Gates (the bench exits nonzero on correctness, CI's JSON gate re-checks
// the numbers): the oversubscribed run completes instead of failing,
// its result is byte-identical to the in-memory run, spill bytes actually
// hit disk, no scratch file outlives its query, and the slowdown stays
// within 3x (checked from the JSON so loaded local machines don't flake).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "algebra/kernels.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/plan.h"
#include "exec/spill/spill.h"
#include "expr/builder.h"
#include "relational/engine.h"
#include "telemetry/metrics.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

constexpr int64_t kLeftRows = 200000;
constexpr int64_t kRightRows = 60000;
constexpr int64_t kKeyRange = 20000;
constexpr int kReps = 3;

/// Tracks the peak resident working set of a run: the probe that the spill
/// arm's oversubscribed budget is derived from. With a budget it is also the
/// spill arm's query meter: operators partition to disk past `budget`.
class PeakMeter : public MemoryMeter {
 public:
  explicit PeakMeter(int64_t budget = 0) : budget_(budget) {}
  void Charge(int64_t bytes) override {
    int64_t now = resident_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  void Release(int64_t bytes) override {
    resident_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  int64_t SpillBudget() const override { return budget_; }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  const int64_t budget_;
  std::atomic<int64_t> resident_{0};
  std::atomic<int64_t> peak_{0};
};

TablePtr BuildLeft() {
  Rng rng(18);
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("v", DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = 0; i < kLeftRows; ++i) {
    NEXUS_CHECK(b.AppendRow({Value::Int64(rng.NextInt(0, kKeyRange - 1)),
                             Value::Float64(rng.NextDouble(0, 100))})
                    .ok());
  }
  return b.Finish().ValueOrDie();
}

TablePtr BuildRight() {
  Rng rng(81);
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("w", DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = 0; i < kRightRows; ++i) {
    NEXUS_CHECK(b.AppendRow({Value::Int64(rng.NextInt(0, kKeyRange - 1)),
                             Value::Float64(rng.NextDouble(0, 10))})
                    .ok());
  }
  return b.Finish().ValueOrDie();
}

struct Arm {
  TablePtr result;
  double wall_ms = 0.0;  // best of kReps
};

template <typename Fn>
Arm Run(const Fn& fn) {
  Arm arm;
  arm.wall_ms = 1e30;
  for (int r = 0; r < kReps; ++r) {
    WallTimer t;
    arm.result = fn();
    arm.wall_ms = std::min(arm.wall_ms, t.ElapsedMillis());
  }
  return arm;
}

}  // namespace

int main() {
  benchjson::Recorder rec("spill");
  TablePtr left = BuildLeft();
  TablePtr right = BuildRight();

  JoinOp join;
  join.type = JoinType::kInner;
  join.left_keys = {"k"};
  join.right_keys = {"k"};

  AggregateOp agg;
  agg.group_by = {"k"};
  agg.aggs = {AggSpec{AggFunc::kSum, Col("v"), "sv"},
              AggSpec{AggFunc::kCount, nullptr, "n"},
              AggSpec{AggFunc::kMin, Col("v"), "lo"}};

  // ----- Probe: in-memory arms under a peak-tracking meter with no budget.
  PeakMeter probe;
  TaskContext probe_ctx;
  probe_ctx.meter = &probe;
  Arm join_mem, agg_mem;
  {
    ScopedTaskContext sc(&probe_ctx);
    join_mem = Run([&] {
      return relational::HashJoin(left, right, join).ValueOrDie();
    });
    agg_mem = Run([&] {
      return algebra::LowerAggregate(left, agg).ValueOrDie();
    });
  }
  const int64_t peak = probe.peak();
  const int64_t budget = std::max<int64_t>(1, peak / 8);

  // ----- Spill arms: 8x oversubscribed, identical answers required. -------
  auto* bytes_written =
      telemetry::MetricsRegistry::Global().counter("spill.bytes_written");
  auto* partitions =
      telemetry::MetricsRegistry::Global().counter("spill.partitions");
  const int64_t bytes_before = bytes_written->value();
  const int64_t parts_before = partitions->value();
  PeakMeter spill_meter(budget);
  TaskContext spill_ctx;
  spill_ctx.meter = &spill_meter;
  Arm join_spill, agg_spill;
  {
    ScopedTaskContext sc(&spill_ctx);
    join_spill = Run([&] {
      return relational::HashJoin(left, right, join).ValueOrDie();
    });
    agg_spill = Run([&] {
      return algebra::LowerAggregate(left, agg).ValueOrDie();
    });
  }
  const int64_t spill_bytes = bytes_written->value() - bytes_before;
  const int64_t spill_parts = partitions->value() - parts_before;
  const int64_t leaked = spill::SpillManager::Global().live_files();

  const bool join_identical = join_spill.result->Equals(*join_mem.result);
  const bool agg_identical = agg_spill.result->Equals(*agg_mem.result);
  const double join_slowdown =
      join_spill.wall_ms / std::max(join_mem.wall_ms, 1e-9);
  const double agg_slowdown =
      agg_spill.wall_ms / std::max(agg_mem.wall_ms, 1e-9);

  rec.Record("e18_probe_peak_bytes", peak, 0.0);
  rec.Record("e18_budget_bytes", budget, 0.0);
  rec.Record("e18_join_inmem", join_mem.result->num_rows(), join_mem.wall_ms);
  rec.Record("e18_join_spill", join_spill.result->num_rows(),
             join_spill.wall_ms);
  rec.Record("e18_join_identical", join_identical ? 1 : 0, 0.0);
  rec.Record("e18_join_slowdown_x", 0, join_slowdown);
  rec.Record("e18_agg_inmem", agg_mem.result->num_rows(), agg_mem.wall_ms);
  rec.Record("e18_agg_spill", agg_spill.result->num_rows(), agg_spill.wall_ms);
  rec.Record("e18_agg_identical", agg_identical ? 1 : 0, 0.0);
  rec.Record("e18_agg_slowdown_x", 0, agg_slowdown);
  rec.Record("e18_spill_bytes", spill_bytes, 0.0);
  rec.Record("e18_spill_partitions", spill_parts, 0.0);
  rec.Record("e18_scratch_leaked", leaked, 0.0);

  std::printf("E18 out-of-core: peak=%lld B budget=%lld B (8x oversubscribed)\n",
              static_cast<long long>(peak), static_cast<long long>(budget));
  std::printf("  join: %lld rows, in-mem %.1f ms, spill %.1f ms (%.2fx), "
              "identical=%d\n",
              static_cast<long long>(join_spill.result->num_rows()),
              join_mem.wall_ms, join_spill.wall_ms, join_slowdown,
              join_identical ? 1 : 0);
  std::printf("  agg:  %lld rows, in-mem %.1f ms, spill %.1f ms (%.2fx), "
              "identical=%d\n",
              static_cast<long long>(agg_spill.result->num_rows()),
              agg_mem.wall_ms, agg_spill.wall_ms, agg_slowdown,
              agg_identical ? 1 : 0);
  std::printf("  spilled %lld B across %lld partitions, %lld scratch "
              "files leaked\n",
              static_cast<long long>(spill_bytes),
              static_cast<long long>(spill_parts),
              static_cast<long long>(leaked));

  const bool ok = join_identical && agg_identical && spill_bytes > 0 &&
                  spill_parts > 0 && leaked == 0;
  if (!ok) std::printf("E18 FAILED correctness gates\n");
  return ok ? 0 : 1;
}
