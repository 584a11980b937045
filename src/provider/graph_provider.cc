// The graph provider ("graphd"): claims PageRank natively via the CSR
// analytics engine — the provider with a "direct implementation" that
// Intent Preservation (desideratum 3) exists to reach.
#include "graph/graph.h"
#include "provider/provider.h"

namespace nexus {

namespace {

class GraphProvider : public EngineProvider {
 public:
  std::string name() const override { return "graphd"; }

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

 protected:
  Result<Dataset> ExecOp(ExecFrame& frame, const Plan& plan,
                         int64_t /*max_rows*/) const override {
    switch (plan.kind()) {
      case OpKind::kAggregate:
        return frame.Fold(plan);
      case OpKind::kPageRank: {
        NEXUS_ASSIGN_OR_RETURN(TablePtr edges, frame.ExecTable(*plan.child(0)));
        const auto& op = plan.As<PageRankOp>();
        NEXUS_ASSIGN_OR_RETURN(
            graph::CsrGraph g,
            graph::CsrGraph::FromTable(*edges, op.src_col, op.dst_col));
        graph::PageRankOptions opts;
        opts.damping = op.damping;
        opts.max_iters = op.max_iters;
        opts.epsilon = op.epsilon;
        graph::PageRankResult r = graph::PageRank(g, opts);
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
        return NoKernel(plan);
    }
  }
};

}  // namespace

ProviderPtr MakeGraphProvider() { return std::make_shared<GraphProvider>(); }

}  // namespace nexus
