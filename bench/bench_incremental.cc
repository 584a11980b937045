// E19 — Streaming appends + incremental view maintenance: the hot refresh
// path recomputes O(|Δ|), not O(|table|). A filter→join→aggregate view is
// registered over a 200k-row base table; each round appends a 1% delta and
// refreshes both arms, alternating which one runs first:
//
//   incremental — ViewRegistry::Refresh folds only the delta through the
//                 retained join/aggregate state
//   full        — ExecuteViewPlan recomputes the whole plan from scratch
//
// A second section drives a client-side Iterate whose loop state grows each
// round, to measure what %NXB1-DELTA bindings save on the wire. The
// full-ship arm is derived from the same run: the coordinator tracks each
// binding's full size, so full-ship bytes = shipped bytes + delta savings.
// The loop's result is checked against the same loop iterated provider-side.
//
// Gates (bench exits nonzero; CI's JSON gate re-checks the numbers): every
// refresh bit-identical to the full recompute (float cells compared by bit
// pattern), median speedup >= 5x at a 1% delta, retained state bounded (it
// may not grow faster than the data), and the delta-Iterate arm ships fewer
// bytes than the full-ship arm for a bit-identical result.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "same_bits.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/plan.h"
#include "exec/incremental/view.h"
#include "expr/builder.h"
#include "federation/coordinator.h"

using namespace nexus;         // NOLINT
using namespace nexus::exprs;  // NOLINT

namespace {

constexpr int64_t kBaseRows = 200000;
constexpr int64_t kSideRows = 4000;
constexpr int64_t kDeltaRows = kBaseRows / 100;  // the 1% refresh batch
constexpr int kRounds = 8;
constexpr int64_t kKeyRange = 4000;
constexpr int64_t kGroups = 64;

SchemaPtr BaseSchema() {
  return Schema::Make({Field::Attr("k", DataType::kInt64),
                       Field::Attr("g", DataType::kInt64),
                       Field::Attr("v", DataType::kFloat64)})
      .ValueOrDie();
}

TablePtr RandomBatch(Rng* rng, int64_t rows) {
  TableBuilder b(BaseSchema());
  for (int64_t i = 0; i < rows; ++i) {
    NEXUS_CHECK(b.AppendRow({Value::Int64(rng->NextInt(0, kKeyRange - 1)),
                             Value::Int64(rng->NextInt(0, kGroups - 1)),
                             Value::Float64(static_cast<double>(
                                 rng->NextInt(-1000, 1000)))})
                    .ok());
  }
  return b.Finish().ValueOrDie();
}

TablePtr SideTable() {
  Rng rng(77);
  SchemaPtr s = Schema::Make({Field::Attr("k", DataType::kInt64),
                              Field::Attr("w", DataType::kFloat64)})
                    .ValueOrDie();
  TableBuilder b(s);
  for (int64_t i = 0; i < kSideRows; ++i) {
    NEXUS_CHECK(b.AppendRow({Value::Int64(i),
                             Value::Float64(static_cast<double>(i % 10))})
                    .ok());
  }
  return b.Finish().ValueOrDie();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  benchjson::Recorder rec("incremental");

  // ----- Refresh arms: incremental vs full recompute at a 1% delta. ------
  Rng rng(19);
  InMemoryCatalog catalog;
  NEXUS_CHECK(catalog.Put("base", Dataset(RandomBatch(&rng, kBaseRows))).ok());
  NEXUS_CHECK(catalog.Put("side", Dataset(SideTable())).ok());

  PlanPtr view = Plan::Aggregate(
      Plan::Join(Plan::Select(Plan::Scan("base"), Gt(Col("v"), Lit(0.0))),
                 Plan::Scan("side"), JoinType::kInner, {"k"}, {"k"}),
      {"g"},
      {AggSpec{AggFunc::kSum, Col("v"), "sv"},
       AggSpec{AggFunc::kCount, nullptr, "n"},
       AggSpec{AggFunc::kMax, Col("w"), "hi"}});

  incremental::ViewRegistry reg(&catalog);
  NEXUS_CHECK(reg.Register("hot", view).ok());
  const int64_t state_after_build = reg.state_bytes();

  std::vector<double> inc_ms, full_ms;
  bool identical = true;
  int64_t delta_rows_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    NEXUS_CHECK(
        catalog.Append("base", Dataset(RandomBatch(&rng, kDeltaRows))).ok());
    incremental::RefreshInfo info;
    TablePtr got, want;
    auto refresh = [&] {
      WallTimer t;
      got = reg.Refresh("hot", &info).ValueOrDie();
      inc_ms.push_back(t.ElapsedMillis());
    };
    auto full = [&] {
      WallTimer t;
      want = incremental::ExecuteViewPlan(*view, catalog).ValueOrDie();
      full_ms.push_back(t.ElapsedMillis());
    };
    // Alternate which arm runs first, so neither always inherits the other's
    // warm caches.
    if (round % 2 == 0) {
      refresh();
      full();
    } else {
      full();
      refresh();
    }
    identical = identical && SameBits(*got, *want) && info.incremental;
    delta_rows_total += info.delta_rows;
  }
  const int64_t state_after = reg.state_bytes();
  const double inc_med = Median(inc_ms);
  const double full_med = Median(full_ms);
  const double speedup = full_med / std::max(inc_med, 1e-9);
  // Bounded state: the retained footprint may grow with the data (the join
  // build sides legitimately hold every row) but not faster than it.
  const double data_growth =
      static_cast<double>(kBaseRows + kRounds * kDeltaRows) /
      static_cast<double>(kBaseRows);
  const bool state_bounded =
      state_after <=
      static_cast<int64_t>(static_cast<double>(state_after_build) *
                           data_growth * 1.5);

  rec.Record("e19_refresh_incremental", delta_rows_total, inc_med);
  rec.Record("e19_refresh_full", kBaseRows + kRounds * kDeltaRows, full_med);
  rec.Record("e19_refresh_speedup_x", 0, speedup);
  rec.Record("e19_refresh_identical", identical ? 1 : 0, 0.0);
  rec.Record("e19_state_bytes_initial", state_after_build, 0.0);
  rec.Record("e19_state_bytes_final", state_after, 0.0);
  rec.Record("e19_state_bounded", state_bounded ? 1 : 0, 0.0);

  std::printf("E19 incremental refresh (1%% delta, %d rounds):\n", kRounds);
  std::printf("  incremental %.2f ms vs full %.2f ms -> %.1fx, identical=%d\n",
              inc_med, full_med, speedup, identical ? 1 : 0);
  std::printf("  state %lld B -> %lld B (bounded=%d)\n",
              static_cast<long long>(state_after_build),
              static_cast<long long>(state_after), state_bounded ? 1 : 0);

  // ----- Delta-driven Iterate: loop bindings as %NXB1-DELTA tails. -------
  Cluster cluster;
  NEXUS_CHECK(cluster.AddServer("relstore", MakeRelationalProvider()).ok());
  SchemaPtr loop_schema =
      Schema::Make({Field::Attr("v", DataType::kInt64)}).ValueOrDie();
  TableBuilder b(loop_schema);
  for (int64_t i = 0; i < 20000; ++i) {
    NEXUS_CHECK(b.AppendRow({Value::Int64(i)}).ok());
  }
  NEXUS_CHECK(
      cluster.PutData("relstore", "state0", Dataset(b.Finish().ValueOrDie()))
          .ok());
  TableBuilder vb(loop_schema);
  NEXUS_CHECK(vb.AppendRow({Value::Int64(-1)}).ok());
  IterateOp op;
  op.body = Plan::Union(Plan::LoopVar(),
                        Plan::Values(Dataset(vb.Finish().ValueOrDie())));
  op.max_iters = 12;
  PlanPtr loop = Plan::Iterate(Plan::Scan("state0"), op);

  CoordinatorOptions client_driven;
  client_driven.provider_side_iteration = false;
  Coordinator coord(&cluster, client_driven);
  ExecutionMetrics m;
  WallTimer t;
  TablePtr delta_out = coord.Execute(loop, &m).ValueOrDie().table();
  const double delta_loop_ms = t.ElapsedMillis();
  Coordinator provider_side(&cluster);
  TablePtr want_out = provider_side.Execute(loop).ValueOrDie().table();

  const QueryProfile& p = m.profile;
  const int64_t full_bytes =
      p[QueryStat::kBytes] + p[QueryStat::kDeltaBytesSaved];
  const bool loop_identical = SameBits(*delta_out, *want_out);
  const bool loop_fewer_bytes = p[QueryStat::kBytes] < full_bytes;

  // The full-ship arm has the delta run's conversation (deltas change bytes,
  // never messages) and no wall time of its own.
  rec.RecordWire("e19_iterate_full_ship", want_out->num_rows(), 0.0,
                 p[QueryStat::kFragments], p[QueryStat::kMessages],
                 p[QueryStat::kRetries], full_bytes,
                 p[QueryStat::kPlanCacheHits]);
  rec.RecordWire("e19_iterate_delta_ship", delta_out->num_rows(),
                 delta_loop_ms, p);
  rec.Record("e19_iterate_delta_bindings", p[QueryStat::kDeltaBindings], 0.0);
  rec.Record("e19_iterate_delta_bytes_saved", p[QueryStat::kDeltaBytesSaved],
             0.0);
  rec.Record("e19_iterate_identical", loop_identical ? 1 : 0, 0.0);
  rec.Record("e19_iterate_fewer_bytes", loop_fewer_bytes ? 1 : 0, 0.0);

  std::printf("E19 delta-Iterate (12 rounds, 20k-row loop state):\n");
  std::printf(
      "  full-ship %lld B, delta-ship %lld B (%lld delta bindings, saved "
      "%lld B), identical=%d\n",
      static_cast<long long>(full_bytes),
      static_cast<long long>(p[QueryStat::kBytes]),
      static_cast<long long>(p[QueryStat::kDeltaBindings]),
      static_cast<long long>(p[QueryStat::kDeltaBytesSaved]),
      loop_identical ? 1 : 0);

  const bool ok = identical && speedup >= 5.0 && state_bounded &&
                  loop_identical && loop_fewer_bytes &&
                  p[QueryStat::kDeltaBindings] > 0;
  if (!ok) std::printf("E19 FAILED correctness gates\n");
  return ok ? 0 : 1;
}
