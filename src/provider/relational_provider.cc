// The relational provider ("relstore"): translates algebra trees onto the
// vectorized columnar engine. Dimension-aware operators are translated to
// relational equivalents (slice → filter, regrid → bin + group-by,
// transpose → column reorder, elemwise → join), and intent operators are
// claimed via their relational expansions — the "combination of systems"
// half of desideratum 2.
#include <algorithm>

#include "algebra/kernels.h"
#include "common/str_util.h"
#include "core/expansion.h"
#include "expr/builder.h"
#include "optimizer/fusion.h"
#include "provider/provider.h"
#include "relational/engine.h"
#include "relational/fused.h"

namespace nexus {

namespace {

using namespace nexus::exprs;  // NOLINT

class RelationalProvider : public EngineProvider {
 public:
  std::string name() const override { return "relstore"; }

  bool Claims(OpKind kind) const override {
    // Window would need per-cell range self-joins; left to array providers
    // (the planner routes around it — "a combination of such systems").
    return kind != OpKind::kWindow;
  }

  Result<Dataset> Execute(const Plan& plan) override {
    // Non-owning alias: expansion only reads the tree.
    PlanPtr alias(&plan, [](const Plan*) {});
    NEXUS_ASSIGN_OR_RETURN(PlanPtr expanded, ExpandIntentOps(alias, catalog_));
    return ExecFrame(*this).Exec(*expanded);
  }

 protected:
  /// A Limit passes its offset + limit as `max_rows`, and a Sort given
  /// fewer than all its rows sorts only those (top-k). Every other operator
  /// ignores it.
  Result<Dataset> ExecOp(ExecFrame& frame, const Plan& plan,
                         int64_t max_rows) const override;
};

/// Applies a matched-but-refused chain with the per-operator kernels against
/// an already-executed source (avoids re-running the source subtree).
Result<TablePtr> ApplyChainUnfused(const std::vector<const Plan*>& ops,
                                   TablePtr t) {
  for (const Plan* op : ops) {
    switch (op->kind()) {
      case OpKind::kSelect: {
        NEXUS_ASSIGN_OR_RETURN(
            t, relational::Filter(t, *op->As<SelectOp>().predicate));
        break;
      }
      case OpKind::kProject: {
        NEXUS_ASSIGN_OR_RETURN(
            t, relational::Project(t, op->As<ProjectOp>().columns));
        break;
      }
      case OpKind::kExtend: {
        NEXUS_ASSIGN_OR_RETURN(t,
                               relational::Extend(t, op->As<ExtendOp>().defs));
        break;
      }
      case OpKind::kAggregate: {
        NEXUS_ASSIGN_OR_RETURN(
            t, algebra::LowerAggregate(t, op->As<AggregateOp>()));
        break;
      }
      default:
        return Status::Internal("non-fusable operator in matched chain");
    }
  }
  return t;
}

// Retags a table's schema (shared by rebox/unbox translation).
Result<TablePtr> Retag(const TablePtr& t, const std::vector<std::string>& dims) {
  std::vector<Field> fields = t->schema()->fields();
  for (Field& f : fields) f.is_dimension = false;
  for (const std::string& d : dims) {
    NEXUS_ASSIGN_OR_RETURN(int i, t->schema()->FindFieldOrError(d));
    if (fields[static_cast<size_t>(i)].type != DataType::kInt64) {
      return Status::TypeError(StrCat("rebox dimension ", d, " must be int64"));
    }
    if (t->column(i).has_nulls()) {
      return Status::InvalidArgument(StrCat("rebox dimension ", d, " has nulls"));
    }
    fields[static_cast<size_t>(i)].is_dimension = true;
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  return Table::Make(schema, t->columns());
}

Result<Dataset> RelationalProvider::ExecOp(ExecFrame& frame, const Plan& plan,
                                           int64_t max_rows) const {
  // Operator fusion: a Filter→Extend/Project(→Aggregate) chain rooted here
  // executes as one compiled morsel loop over the chain's source instead of
  // materializing a table per operator. Lowering refuses (kUnsupported)
  // whenever byte-identity cannot be proven; then the chain runs through the
  // regular per-operator kernels below on the already-executed source.
  std::optional<FusedChain> chain = MatchFusedChain(plan);
  if (chain.has_value()) {
    NEXUS_ASSIGN_OR_RETURN(TablePtr src, frame.ExecTable(*chain->source));
    Result<relational::FusedPipeline> fp =
        relational::CompileFusedPipeline(chain->ops, src->schema());
    if (fp.ok()) {
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::ExecuteFused(fp.ValueOrDie(), src));
      return Dataset(out);
    }
    if (!fp.status().IsUnsupported()) return fp.status();
    NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                           ApplyChainUnfused(chain->ops, std::move(src)));
    return Dataset(out);
  }
  switch (plan.kind()) {
    case OpKind::kSelect: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr out, relational::Filter(in, *plan.As<SelectOp>().predicate));
      return Dataset(out);
    }
    case OpKind::kProject: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::Project(in, plan.As<ProjectOp>().columns));
      return Dataset(out);
    }
    case OpKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::Extend(in, plan.As<ExtendOp>().defs));
      return Dataset(out);
    }
    case OpKind::kJoin: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr l, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr r, frame.ExecTable(*plan.child(1)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::HashJoin(l, r, plan.As<JoinOp>()));
      return Dataset(out);
    }
    case OpKind::kAggregate:
      return frame.Fold(plan);
    case OpKind::kSort: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr out,
          relational::Sort(in, plan.As<SortOp>().keys, max_rows));
      return Dataset(out);
    }
    case OpKind::kLimit: {
      // The child's first offset + limit rows are all the slice reads
      // (Table::Slice clamps negatives to 0; the sum saturates).
      const auto& op = plan.As<LimitOp>();
      const int64_t offset = std::max<int64_t>(op.offset, 0);
      const int64_t limit = std::max<int64_t>(op.limit, 0);
      const int64_t reads = limit > ExecFrame::kAllRows - offset
                                ? ExecFrame::kAllRows
                                : offset + limit;
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0), reads));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::Limit(in, op.limit, op.offset));
      return Dataset(out);
    }
    case OpKind::kDistinct: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, relational::Distinct(in));
      return Dataset(out);
    }
    case OpKind::kUnion: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr l, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr r, frame.ExecTable(*plan.child(1)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, relational::Union(l, r));
      return Dataset(out);
    }
    case OpKind::kRename: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::Rename(in, plan.As<RenameOp>().mapping));
      return Dataset(out);
    }
    case OpKind::kRebox: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Retag(in, plan.As<ReboxOp>().dims));
      return Dataset(out);
    }
    case OpKind::kUnbox: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Retag(in, {}));
      return Dataset(out);
    }
    case OpKind::kSlice: {
      // slice → conjunctive range filter on the dimension columns.
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      std::vector<ExprPtr> preds;
      for (const DimRange& r : plan.As<SliceOp>().ranges) {
        preds.push_back(Ge(Col(r.dim), Lit(r.lo)));
        preds.push_back(Lt(Col(r.dim), Lit(r.hi)));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             relational::Filter(in, *AndAll(std::move(preds))));
      return Dataset(out);
    }
    case OpKind::kShift: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      std::vector<Column> cols = in->columns();
      for (const auto& [dim, delta] : plan.As<ShiftOp>().offsets) {
        NEXUS_ASSIGN_OR_RETURN(int i, in->schema()->FindFieldOrError(dim));
        std::vector<int64_t> shifted = cols[static_cast<size_t>(i)].ints();
        for (int64_t& v : shifted) v += delta;
        cols[static_cast<size_t>(i)] = Column::FromInt64(std::move(shifted));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             Table::Make(in->schema(), std::move(cols)));
      return Dataset(out);
    }
    case OpKind::kRegrid: {
      // regrid → extend(binned dims) + group-by + rename + rebox.
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      const auto& op = plan.As<RegridOp>();
      std::vector<int> dim_cols = in->schema()->DimensionIndices();
      // Bin every dimension column (factor 1 when unlisted) via floor
      // division; floor(i / f) with float division matches FloorDiv for
      // positive factors.
      std::vector<std::pair<std::string, ExprPtr>> bins;
      std::vector<std::string> bin_names, dim_names;
      for (int c : dim_cols) {
        const std::string& dim = in->schema()->field(c).name;
        int64_t factor = 1;
        for (const auto& [d, f] : op.factors) {
          if (d == dim) factor = f;
        }
        std::string bin = "__rg_" + dim;
        bins.emplace_back(
            bin, Func("floor", {Div(Col(dim), Lit(factor))}));
        bin_names.push_back(bin);
        dim_names.push_back(dim);
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr binned, relational::Extend(in, bins));
      AggregateOp agg;
      agg.group_by = bin_names;
      for (int c : in->schema()->AttributeIndices()) {
        const Field& f = in->schema()->field(c);
        if (!IsNumeric(f.type)) continue;
        agg.aggs.push_back(AggSpec{op.func, Col(f.name), f.name});
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr grouped,
                             algebra::LowerAggregate(binned, agg));
      std::vector<std::pair<std::string, std::string>> back;
      for (size_t i = 0; i < bin_names.size(); ++i) {
        back.emplace_back(bin_names[i], dim_names[i]);
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr named, relational::Rename(grouped, back));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Retag(named, dim_names));
      return Dataset(out);
    }
    case OpKind::kTranspose: {
      // transpose → column reorder.
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, frame.ExecTable(*plan.child(0)));
      std::vector<std::string> order = plan.As<TransposeOp>().dim_order;
      for (int c : in->schema()->AttributeIndices()) {
        order.push_back(in->schema()->field(c).name);
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, relational::Project(in, order));
      return Dataset(out);
    }
    case OpKind::kElemWise: {
      // elemwise → rename + equi-join on dimensions + extend + project.
      NEXUS_ASSIGN_OR_RETURN(TablePtr l, frame.ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr r, frame.ExecTable(*plan.child(1)));
      BinaryOp op = plan.As<ElemWiseOpSpec>().op;
      std::vector<int> ld = l->schema()->DimensionIndices();
      std::vector<int> rd = r->schema()->DimensionIndices();
      int la = l->schema()->AttributeIndices().at(0);
      int ra = r->schema()->AttributeIndices().at(0);
      std::vector<std::pair<std::string, std::string>> rmap;
      std::vector<std::string> lkeys, rkeys;
      for (size_t i = 0; i < rd.size(); ++i) {
        std::string tmp = StrCat("__ew_d", i);
        rmap.emplace_back(r->schema()->field(rd[i]).name, tmp);
        rkeys.push_back(tmp);
        lkeys.push_back(l->schema()->field(ld[i]).name);
      }
      rmap.emplace_back(r->schema()->field(ra).name, "__ew_b");
      NEXUS_ASSIGN_OR_RETURN(TablePtr rr, relational::Rename(r, rmap));
      JoinOp join;
      join.type = JoinType::kInner;
      join.left_keys = lkeys;
      join.right_keys = rkeys;
      NEXUS_ASSIGN_OR_RETURN(TablePtr joined, relational::HashJoin(l, rr, join));
      const std::string lattr = l->schema()->field(la).name;
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr extended,
          relational::Extend(
              joined, {{"__ew_r", Expr::Binary(op, Col(lattr), Col("__ew_b"))}}));
      std::vector<std::string> keep = lkeys;
      keep.push_back("__ew_r");
      NEXUS_ASSIGN_OR_RETURN(TablePtr projected,
                             relational::Project(extended, keep));
      NEXUS_ASSIGN_OR_RETURN(TablePtr named,
                             relational::Rename(projected, {{"__ew_r", lattr}}));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Retag(named, lkeys));
      return Dataset(out);
    }
    default:
      // MatMul and PageRank, which Execute expands away.
      return NoKernel(plan);
  }
}

}  // namespace

ProviderPtr MakeRelationalProvider() {
  return std::make_shared<RelationalProvider>();
}

}  // namespace nexus
