// The array provider ("arraydb"): executes dimension-aware operators
// chunk-natively. Purely relational operators (join, sort, …) are not
// claimed — the planner combines this provider with relstore for mixed
// plans; ⊕-fold aggregates are, via the algebra kernels.
#include "arraydb/engine.h"
#include "provider/provider.h"

namespace nexus {

namespace {

class ArrayProvider : public EngineProvider {
 public:
  std::string name() const override { return "arraydb"; }

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

 protected:
  Result<Dataset> ExecOp(ExecFrame& frame, const Plan& plan,
                         int64_t max_rows) const override;
};

Result<Dataset> ArrayProvider::ExecOp(ExecFrame& frame, const Plan& plan,
                                      int64_t /*max_rows*/) const {
  switch (plan.kind()) {
    case OpKind::kSelect: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          NDArrayPtr out, arraydb::FilterCells(*in, *plan.As<SelectOp>().predicate));
      return Dataset(out);
    }
    case OpKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Apply(*in, plan.As<ExtendOp>().defs));
      return Dataset(out);
    }
    case OpKind::kAggregate:
      return frame.Fold(plan);
    case OpKind::kRebox: {
      NEXUS_ASSIGN_OR_RETURN(Dataset in, frame.Exec(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr t, in.AsTable());
      const auto& op = plan.As<ReboxOp>();
      std::vector<int64_t> chunks(op.dims.size(), op.chunk_size);
      NEXUS_ASSIGN_OR_RETURN(std::shared_ptr<NDArray> arr,
                             NDArray::FromTable(*t, op.dims, chunks));
      return Dataset(NDArrayPtr(std::move(arr)));
    }
    case OpKind::kUnbox: {
      NEXUS_ASSIGN_OR_RETURN(Dataset in, frame.Exec(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr t, in.AsTable());
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr out, Table::Make(t->schema()->WithoutDimensions(), t->columns()));
      return Dataset(out);
    }
    case OpKind::kSlice: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Slice(*in, plan.As<SliceOp>().ranges));
      return Dataset(out);
    }
    case OpKind::kShift: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Shift(*in, plan.As<ShiftOp>().offsets));
      return Dataset(out);
    }
    case OpKind::kRegrid: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      const auto& op = plan.As<RegridOp>();
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Regrid(*in, op.factors, op.func));
      return Dataset(out);
    }
    case OpKind::kTranspose: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          NDArrayPtr out, arraydb::Transpose(*in, plan.As<TransposeOp>().dim_order));
      return Dataset(out);
    }
    case OpKind::kWindow: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr in, frame.ExecArray(*plan.child(0)));
      const auto& op = plan.As<WindowOp>();
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr out,
                             arraydb::Window(*in, op.radii, op.func));
      return Dataset(out);
    }
    case OpKind::kElemWise: {
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr l, frame.ExecArray(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(NDArrayPtr r, frame.ExecArray(*plan.child(1)));
      NEXUS_ASSIGN_OR_RETURN(
          NDArrayPtr out, arraydb::ElemWise(*l, *r, plan.As<ElemWiseOpSpec>().op));
      return Dataset(out);
    }
    default:
      return NoKernel(plan);
  }
}

}  // namespace

ProviderPtr MakeArrayProvider() { return std::make_shared<ArrayProvider>(); }

}  // namespace nexus
