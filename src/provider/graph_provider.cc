// The graph provider ("graphd"): claims PageRank natively via the CSR
// analytics engine — the provider with a "direct implementation" that
// Intent Preservation (desideratum 3) exists to reach.
#include "algebra/kernels.h"
#include "graph/graph.h"
#include "provider/provider.h"
#include "telemetry/telemetry.h"

namespace nexus {

namespace {

class GraphProvider : public Provider {
 public:
  std::string name() const override { return "graphd"; }

  // graphd speaks NXB1 natively: its operands live in the same
  // columnar vectors the wire blocks are lifted from.
  bool AcceptsBinaryWire() const override { return true; }

  bool Claims(OpKind kind) const override {
    switch (kind) {
      case OpKind::kScan:
      case OpKind::kValues:
      case OpKind::kPageRank:
      case OpKind::kAggregate:  // ⊕-folds run on the algebra kernels
      case OpKind::kExchange:
        return true;
      default:
        return false;
    }
  }

  Result<Dataset> Execute(const Plan& plan) override { return Exec(plan); }

  /// Iterations the last PageRank execution needed (bench instrumentation).
  int64_t last_iterations() const { return last_iterations_; }

 private:
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

  Result<Dataset> ExecNode(const Plan& plan) {
    switch (plan.kind()) {
      case OpKind::kScan:
        return catalog_.Get(plan.As<ScanOp>().table);
      case OpKind::kValues:
        return plan.As<ValuesOp>().data;
      case OpKind::kExchange:
        return Exec(*plan.child(0));
      case OpKind::kAggregate: {
        NEXUS_ASSIGN_OR_RETURN(Dataset in_ds, Exec(*plan.child(0)));
        NEXUS_ASSIGN_OR_RETURN(TablePtr in, in_ds.AsTable());
        const auto& spec = plan.As<AggregateOp>();
        NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                               algebra::LowerAggregate(in, spec));
        return Dataset(out);
      }
      case OpKind::kPageRank: {
        NEXUS_ASSIGN_OR_RETURN(Dataset edges_ds, Exec(*plan.child(0)));
        NEXUS_ASSIGN_OR_RETURN(TablePtr edges, edges_ds.AsTable());
        const auto& op = plan.As<PageRankOp>();
        NEXUS_ASSIGN_OR_RETURN(
            graph::CsrGraph g,
            graph::CsrGraph::FromTable(*edges, op.src_col, op.dst_col));
        graph::PageRankOptions opts;
        opts.damping = op.damping;
        opts.max_iters = op.max_iters;
        opts.epsilon = op.epsilon;
        graph::PageRankResult r = graph::PageRank(g, opts);
        last_iterations_ = r.iterations;
        NEXUS_ASSIGN_OR_RETURN(
            SchemaPtr schema,
            Schema::Make({Field::Dim("node"),
                          Field::Attr("rank", DataType::kFloat64)}));
        TableBuilder builder(schema);
        builder.Reserve(g.num_nodes());
        for (int64_t u = 0; u < g.num_nodes(); ++u) {
          NEXUS_RETURN_NOT_OK(builder.AppendRow(
              {Value::Int64(g.original_id(u)),
               Value::Float64(r.rank[static_cast<size_t>(u)])}));
        }
        NEXUS_ASSIGN_OR_RETURN(TablePtr out, builder.Finish());
        return Dataset(out);
      }
      default:
        return Status::Unsupported(
            std::string("graphd does not implement ") + OpKindName(plan.kind()));
    }
  }

  int64_t last_iterations_ = 0;
};

}  // namespace

ProviderPtr MakeGraphProvider() { return std::make_shared<GraphProvider>(); }

}  // namespace nexus
