// The array provider ("arraydb"): executes dimension-aware operators
// chunk-natively. Purely relational operators (join, sort, …) are not
// claimed — the planner combines this provider with relstore for mixed
// plans; ⊕-fold aggregates are, via the algebra kernels.
#include "algebra/kernels.h"
#include "arraydb/engine.h"
#include "exec/reference_executor.h"
#include "provider/provider.h"
#include "telemetry/telemetry.h"

namespace nexus {

namespace {

// One execution of a plan on arraydb. Per-call state (the Iterate loop
// stack) lives here, not on the provider, so concurrent Executes on one
// server never see each other's loop frames.
class ArrayExec {
 public:
  explicit ArrayExec(const InMemoryCatalog& catalog) : catalog_(catalog) {}

  /// Per-operator tracing shim around ExecNode; recursion re-enters here,
  /// so every plan node gets a span when tracing is on.
  Result<Dataset> Exec(const Plan& plan) {
    if (!telemetry::Enabled()) return ExecNode(plan);
    telemetry::SpanGuard span(telemetry::kCategoryOperator, plan.NodeLabel());
    auto result = ExecNode(plan);
    if (result.ok() && span.active()) {
      span.AddCounter("rows", result.ValueOrDie().num_rows());
      span.AddCounter("bytes", result.ValueOrDie().ByteSize());
    }
    return result;
  }

 private:
  Result<Dataset> ExecNode(const Plan& plan);
  Result<NDArrayPtr> ExecA(const Plan& plan) {
    NEXUS_ASSIGN_OR_RETURN(Dataset d, Exec(plan));
    return d.AsArray();
  }

  const InMemoryCatalog& catalog_;
  std::vector<ExecLoopFrame> loop_stack_;
};

class ArrayProvider : public Provider {
 public:
  std::string name() const override { return "arraydb"; }

  // arraydb speaks NXB1 natively: its operands live in the same
  // columnar vectors the wire blocks are lifted from.
  bool AcceptsBinaryWire() const override { return true; }

  bool Claims(OpKind kind) const override {
    switch (kind) {
      case OpKind::kScan:
      case OpKind::kValues:
      case OpKind::kLoopVar:
      case OpKind::kSelect:
      case OpKind::kExtend:
      case OpKind::kRebox:
      case OpKind::kUnbox:
      case OpKind::kSlice:
      case OpKind::kShift:
      case OpKind::kRegrid:
      case OpKind::kTranspose:
      case OpKind::kWindow:
      case OpKind::kElemWise:
      case OpKind::kIterate:
      case OpKind::kAggregate:  // ⊕-folds run on the algebra kernels
      case OpKind::kExchange:
        return true;
      default:
        return false;
    }
  }

  Result<Dataset> Execute(const Plan& plan) override {
    return ArrayExec(catalog_).Exec(plan);
  }
};

Result<Dataset> ArrayExec::ExecNode(const Plan& plan) {
  switch (plan.kind()) {
    case OpKind::kScan:
      return catalog_.Get(plan.As<ScanOp>().table);
    case OpKind::kValues:
      return plan.As<ValuesOp>().data;
    case OpKind::kLoopVar: {
      if (loop_stack_.empty()) return Status::PlanError("loopvar outside iterate");
      return plan.As<LoopVarOp>().previous ? loop_stack_.back().previous
                                           : loop_stack_.back().current;
    }
    case OpKind::kSelect: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          NDArrayPtr out, arraydb::FilterCells(*in, *plan.As<SelectOp>().predicate));
      return Dataset(out);
    }
    case OpKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Apply(*in, plan.As<ExtendOp>().defs));
      return Dataset(out);
    }
    case OpKind::kAggregate: {
      NEXUS_ASSIGN_OR_RETURN(Dataset in_ds, Exec(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, in_ds.AsTable());
      const auto& spec = plan.As<AggregateOp>();
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, algebra::LowerAggregate(in, spec));
      return Dataset(out);
    }
    case OpKind::kRebox: {
      NEXUS_ASSIGN_OR_RETURN(Dataset in, Exec(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr t, in.AsTable());
      const auto& op = plan.As<ReboxOp>();
      std::vector<int64_t> chunks(op.dims.size(), op.chunk_size);
      NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> arr,
                             NDArray::FromTable(*t, op.dims, chunks));
      return Dataset(NDArrayPtr(std::move(arr)));
    }
    case OpKind::kUnbox: {
      NEXUS_ASSIGN_OR_RETURN(Dataset in, Exec(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr t, in.AsTable());
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr out, Table::Make(t->schema()->WithoutDimensions(), t->columns()));
      return Dataset(out);
    }
    case OpKind::kSlice: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Slice(*in, plan.As<SliceOp>().ranges));
      return Dataset(out);
    }
    case OpKind::kShift: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Shift(*in, plan.As<ShiftOp>().offsets));
      return Dataset(out);
    }
    case OpKind::kRegrid: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      const auto& op = plan.As<RegridOp>();
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Regrid(*in, op.factors, op.func));
      return Dataset(out);
    }
    case OpKind::kTranspose: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          NDArrayPtr out, arraydb::Transpose(*in, plan.As<TransposeOp>().dim_order));
      return Dataset(out);
    }
    case OpKind::kWindow: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, ExecA(*plan.child(0)));
      const auto& op = plan.As<WindowOp>();
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Window(*in, op.radii, op.func));
      return Dataset(out);
    }
    case OpKind::kElemWise: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr l, ExecA(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr r, ExecA(*plan.child(1)));
      NEXUS_ASSIGN_OR_RETURN(
          NDArrayPtr out, arraydb::ElemWise(*l, *r, plan.As<ElemWiseOpSpec>().op));
      return Dataset(out);
    }
    case OpKind::kIterate: {
      const auto& op = plan.As<IterateOp>();
      NEXUS_ASSIGN_OR_RETURN(Dataset state, Exec(*plan.child(0)));
      for (int64_t iter = 0; iter < op.max_iters; ++iter) {
        loop_stack_.push_back(ExecLoopFrame{state, state});
        auto next = Exec(*op.body);
        loop_stack_.pop_back();
        NEXUS_RETURN_NOT_OK(next.status());
        if (op.measure != nullptr) {
          loop_stack_.push_back(ExecLoopFrame{next.ValueOrDie(), state});
          auto measured = Exec(*op.measure);
          loop_stack_.pop_back();
          NEXUS_RETURN_NOT_OK(measured.status());
          NEXUS_ASSIGN_OR_RETURN(TablePtr mt, measured.ValueOrDie().AsTable());
          if (mt->num_rows() != 1 || mt->num_columns() != 1) {
            return Status::PlanError("iterate measure must yield one cell");
          }
          Value v = mt->At(0, 0);
          state = next.MoveValue();
          if (!v.is_null() && v.AsDouble() < op.epsilon) break;
        } else {
          state = next.MoveValue();
        }
      }
      return state;
    }
    case OpKind::kExchange:
      return Exec(*plan.child(0));
    default:
      return Status::Unsupported(
          std::string("arraydb does not implement ") + OpKindName(plan.kind()));
  }
}

}  // namespace

ProviderPtr MakeArrayProvider() { return std::make_shared<ArrayProvider>(); }

}  // namespace nexus
