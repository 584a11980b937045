#include "provider/provider.h"

#include "algebra/kernels.h"
#include "common/str_util.h"
#include "core/serialize.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace nexus {

namespace {

/// Registry instruments that are not per-query stats, resolved once
/// (pointers are stable forever).
struct ProviderInstruments {
  telemetry::Counter* delta_binding_hit;
  telemetry::Counter* delta_binding_miss;

  static const ProviderInstruments& Get() {
    static const ProviderInstruments in{
        telemetry::MetricsRegistry::Global().counter(
            "provider.delta_binding_hit"),
        telemetry::MetricsRegistry::Global().counter(
            "provider.delta_binding_miss"),
    };
    return in;
  }
};

}  // namespace

Result<Dataset> Provider::ExecuteWire(const std::string& wire) {
  // Trace context travels in-band: a wire built under tracing starts with a
  // %NEXUS-TRACE header naming the trace, the sender's span, and this
  // server. Adopting it stitches every span recorded here — operators,
  // kernels, morsels — under the coordinator's fragment span, so a
  // multi-server query renders as one tree. The header is recognized (and
  // stripped) even when tracing is off, so a cached wire stays parseable.
  telemetry::TraceContext ctx;
  size_t offset = telemetry::StripWireHeader(wire, &ctx);
  // Everything behind the header is consumed as a view; large payloads are
  // never copied on the receive path.
  std::string_view body(wire);
  body.remove_prefix(offset);
  if (offset == 0 || !telemetry::Enabled()) return ExecuteWireBody(body);

  telemetry::ContextScope scope(ctx);
  telemetry::SpanGuard span(telemetry::kCategoryServer, name(), ctx.server);
  auto result = ExecuteWireBody(body);
  if (result.ok() && span.active()) {
    span.AddCounter("rows", result.ValueOrDie().num_rows());
    span.AddCounter("bytes", result.ValueOrDie().ByteSize());
  }
  return result;
}

Result<Dataset> Provider::ExecuteWireBody(std::string_view body) {
  NEXUS_ASSIGN_OR_RETURN(WireEnvelope env, ParseWireEnvelope(body));
  PlanPtr plan;
  switch (env.kind) {
    case WireEnvelope::Kind::kNone: {
      NEXUS_ASSIGN_OR_RETURN(plan, ParsePlan(env.plan_wire));
      break;
    }
    case WireEnvelope::Kind::kPlanStore: {
      NEXUS_ASSIGN_OR_RETURN(plan, ParsePlan(env.plan_wire));
      CachePlan(env.fingerprint, plan);
      telemetry::Count(QueryStat::kPlanCacheMisses);
      break;
    }
    case WireEnvelope::Kind::kExecCached: {
      plan = LookupCachedPlan(env.fingerprint);
      if (plan == nullptr) {
        telemetry::Count(QueryStat::kPlanCacheMisses);
        return Status::NotFound(
            StrCat(kPlanCacheMissMarker, ": fingerprint ", env.fingerprint,
                   " not cached on ", name()));
      }
      telemetry::Count(QueryStat::kPlanCacheHits);
      break;
    }
  }
  if (env.bindings.empty()) return Execute(*plan);
  return ExecuteBound(*plan, env.bindings);
}

Result<Dataset> Provider::ExecuteBound(
    const Plan& plan,
    const std::vector<std::pair<std::string_view, std::string_view>>&
        bindings) {
  std::vector<std::string> registered;
  registered.reserve(bindings.size());
  auto drop_all = [&] {
    for (const std::string& n : registered) (void)catalog_.Drop(n);
  };
  for (const auto& [bname, bwire] : bindings) {
    std::string key(bname);
    auto data = ResolveBinding(key, bwire);
    if (!data.ok()) {
      drop_all();
      return data.status();
    }
    Status st = catalog_.Put(key, std::move(data).ValueOrDie());
    if (!st.ok()) {
      drop_all();
      return st;
    }
    registered.push_back(std::move(key));
  }
  auto result = Execute(plan);
  drop_all();
  return result;
}

Result<Dataset> Provider::ResolveBinding(const std::string& name,
                                         std::string_view wire) {
  const ProviderInstruments& in = ProviderInstruments::Get();
  if (!IsDeltaBindingWire(wire)) {
    NEXUS_ASSIGN_OR_RETURN(Dataset data, ParseDatasetWire(wire));
    if (data.is_table()) {
      CacheBinding(name, data.table(), ChainFingerprint(0, wire));
    }
    return data;
  }
  NEXUS_ASSIGN_OR_RETURN(DeltaBindingView view, ParseDeltaBindingWire(wire));
  TablePtr base;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = binding_cache_.find(name);
    if (it != binding_cache_.end() && it->second.chain_fp == view.chain_fp &&
        it->second.table->num_rows() == view.base_rows) {
      base = it->second.table;
    }
  }
  if (base == nullptr) {
    in.delta_binding_miss->Increment();
    return Status::NotFound(StrCat(kDeltaBindingMissMarker, ": no base for '",
                                   name, "' on ", this->name()));
  }
  NEXUS_ASSIGN_OR_RETURN(Dataset tail, ParseDatasetWire(view.tail_wire));
  if (!tail.is_table() || !tail.table()->schema()->Equals(*base->schema())) {
    in.delta_binding_miss->Increment();
    return Status::NotFound(StrCat(kDeltaBindingMissMarker,
                                   ": schema mismatch for '", name, "' on ",
                                   this->name()));
  }
  std::vector<Column> cols = base->columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    NEXUS_RETURN_NOT_OK(
        cols[c].AppendColumn(tail.table()->column(static_cast<int>(c))));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr full,
                         Table::Make(base->schema(), std::move(cols)));
  CacheBinding(name, full, ChainFingerprint(view.chain_fp, view.tail_wire));
  in.delta_binding_hit->Increment();
  return Dataset(std::move(full));
}

void Provider::CacheBinding(const std::string& name, TablePtr table,
                            uint64_t chain_fp) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = binding_cache_.find(name);
  if (it != binding_cache_.end()) {
    it->second = BindingEntry{std::move(table), chain_fp};
    return;
  }
  binding_cache_.emplace(name, BindingEntry{std::move(table), chain_fp});
  binding_cache_order_.push_back(name);
  if (binding_cache_order_.size() > kBindingCacheCapacity) {
    binding_cache_.erase(binding_cache_order_.front());
    binding_cache_order_.pop_front();
  }
}

PlanPtr Provider::LookupCachedPlan(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = plan_cache_.find(fingerprint);
  return it == plan_cache_.end() ? nullptr : it->second;
}

void Provider::CachePlan(uint64_t fingerprint, PlanPtr plan) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = plan_cache_.find(fingerprint);
  if (it != plan_cache_.end()) {
    it->second = std::move(plan);
    return;
  }
  plan_cache_.emplace(fingerprint, std::move(plan));
  plan_cache_order_.push_back(fingerprint);
  if (plan_cache_order_.size() > kPlanCacheCapacity) {
    plan_cache_.erase(plan_cache_order_.front());
    plan_cache_order_.pop_front();
  }
}

bool Provider::ClaimsTree(const Plan& plan) const {
  if (!Claims(plan.kind())) return false;
  for (const PlanPtr& c : plan.children()) {
    if (!ClaimsTree(*c)) return false;
  }
  if (plan.kind() == OpKind::kIterate) {
    const auto& op = plan.As<IterateOp>();
    if (!ClaimsTree(*op.body)) return false;
    if (op.measure != nullptr && !ClaimsTree(*op.measure)) return false;
  }
  return true;
}

Result<Dataset> EngineProvider::Execute(const Plan& plan) {
  return ExecFrame(*this).Exec(plan);
}

Status EngineProvider::NoKernel(const Plan& plan) const {
  return Status::Internal(
      StrCat(name(), " claims ", OpKindName(plan.kind()), " but has no kernel"));
}

Result<Dataset> ExecFrame::Exec(const Plan& plan, int64_t max_rows) {
  if (!telemetry::Enabled()) return ExecNode(plan, max_rows);
  telemetry::SpanGuard span(telemetry::kCategoryOperator, plan.NodeLabel());
  auto result = ExecNode(plan, max_rows);
  if (result.ok() && span.active()) {
    span.AddCounter("rows", result.ValueOrDie().num_rows());
    span.AddCounter("bytes", result.ValueOrDie().ByteSize());
  }
  return result;
}

Result<TablePtr> ExecFrame::ExecTable(const Plan& plan, int64_t max_rows) {
  NEXUS_ASSIGN_OR_RETURN(Dataset d, Exec(plan, max_rows));
  return d.AsTable();
}

Result<NDArrayPtr> ExecFrame::ExecArray(const Plan& plan) {
  NEXUS_ASSIGN_OR_RETURN(Dataset d, Exec(plan));
  return d.AsArray();
}

Result<Dataset> ExecFrame::Fold(const Plan& aggregate) {
  NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*aggregate.child(0)));
  NEXUS_ASSIGN_OR_RETURN(
      TablePtr out, algebra::LowerAggregate(in, aggregate.As<AggregateOp>()));
  return Dataset(out);
}

Result<Dataset> ExecFrame::ExecNode(const Plan& plan, int64_t max_rows) {
  if (!engine_.Claims(plan.kind())) {
    return Status::Unsupported(StrCat(engine_.name(), " does not implement ",
                                      OpKindName(plan.kind())));
  }
  switch (plan.kind()) {
    case OpKind::kScan:
      return catalog_.Get(plan.As<ScanOp>().table);
    case OpKind::kValues:
      return plan.As<ValuesOp>().data;
    case OpKind::kLoopVar:
      if (loop_stack_.empty()) {
        return Status::PlanError("loopvar outside iterate");
      }
      return plan.As<LoopVarOp>().previous ? loop_stack_.back().previous
                                           : loop_stack_.back().current;
    case OpKind::kExchange:
      return Exec(*plan.child(0));
    case OpKind::kIterate:
      return Iterate(plan);
    default:
      return engine_.ExecOp(*this, plan, max_rows);
  }
}

Result<Dataset> ExecFrame::Iterate(const Plan& plan) {
  const auto& op = plan.As<IterateOp>();
  NEXUS_ASSIGN_OR_RETURN(Dataset state, Exec(*plan.child(0)));
  for (int64_t iter = 0; iter < op.max_iters; ++iter) {
    NEXUS_ASSIGN_OR_RETURN(Dataset next, InLoop({state, state}, *op.body));
    bool converged = false;
    if (op.measure != nullptr) {
      NEXUS_ASSIGN_OR_RETURN(Dataset measured,
                             InLoop({next, state}, *op.measure));
      NEXUS_ASSIGN_OR_RETURN(converged,
                             MeasureConverged(measured, op.epsilon));
    }
    state = std::move(next);
    if (converged) break;
  }
  return state;
}

Result<Dataset> ExecFrame::InLoop(ExecLoopFrame loop, const Plan& plan) {
  loop_stack_.push_back(std::move(loop));
  auto result = Exec(plan);
  loop_stack_.pop_back();
  return result;
}

Result<bool> MeasureConverged(const Dataset& measured, double epsilon) {
  NEXUS_ASSIGN_OR_RETURN(TablePtr mt, measured.AsTable());
  if (mt->num_rows() != 1 || mt->num_columns() != 1) {
    return Status::PlanError("iterate measure must yield one cell");
  }
  Value v = mt->At(0, 0);
  return !v.is_null() && v.AsDouble() < epsilon;
}

}  // namespace nexus
