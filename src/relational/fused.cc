#include "relational/fused.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "algebra/kernels.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "expr/vm.h"
#include "relational/engine.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace relational {

namespace {

constexpr char kFusedAggPrefix[] = "__fused_agg";

// Every lowering failure is a refusal: the per-operator fallback owns both
// execution and error reporting for chains we cannot prove byte-identical.
Status Refuse(const char* why) {
  return Status::Unsupported(StrCat("fusion: ", why));
}

// One working column tracked symbolically: its schema field plus the
// expression computing it over the SOURCE schema.
struct SymCol {
  Field field;
  ExprPtr expr;
};

}  // namespace

Result<FusedPipeline> CompileFusedPipeline(const std::vector<const Plan*>& ops,
                                           const SchemaPtr& source_schema) {
  std::vector<SymCol> cols;
  cols.reserve(static_cast<size_t>(source_schema->num_fields()));
  for (const Field& f : source_schema->fields()) {
    cols.push_back({f, Expr::ColumnRef(f.name)});
  }
  SchemaPtr work = source_schema;
  std::vector<ExprPtr> preds;
  FusedPipeline fp;

  auto mapping = [&cols] {
    std::vector<std::pair<std::string, ExprPtr>> m;
    m.reserve(cols.size());
    for (const SymCol& c : cols) m.emplace_back(c.field.name, c.expr);
    return m;
  };
  auto rebuild_work = [&]() -> Status {
    std::vector<Field> fields;
    fields.reserve(cols.size());
    for (const SymCol& c : cols) fields.push_back(c.field);
    Result<SchemaPtr> s = Schema::Make(std::move(fields));
    if (!s.ok()) return Refuse("working schema invalid");
    work = s.MoveValue();
    return Status::OK();
  };

  for (size_t oi = 0; oi < ops.size(); ++oi) {
    const Plan& op = *ops[oi];
    switch (op.kind()) {
      case OpKind::kSelect: {
        const ExprPtr& pred = op.As<SelectOp>().predicate;
        if (pred == nullptr) return Refuse("null predicate");
        Result<DataType> t = InferExprType(*pred, *work);
        if (!t.ok() || t.ValueOrDie() != DataType::kBool) {
          return Refuse("predicate not boolean");
        }
        ExprPtr subst = pred->SubstituteColumns(mapping());
        Result<DataType> ts = InferExprType(*subst, *source_schema);
        if (!ts.ok() || ts.ValueOrDie() != DataType::kBool) {
          return Refuse("predicate type drift");
        }
        preds.push_back(std::move(subst));
        break;
      }
      case OpKind::kExtend: {
        for (const auto& [name, def] : op.As<ExtendOp>().defs) {
          if (def == nullptr) return Refuse("null extend definition");
          Result<DataType> t = InferExprType(*def, *work);
          if (!t.ok()) return Refuse("extend inference failed");
          ExprPtr subst = def->SubstituteColumns(mapping());
          Result<DataType> ts = InferExprType(*subst, *source_schema);
          if (!ts.ok() || ts.ValueOrDie() != t.ValueOrDie()) {
            return Refuse("extend type drift");
          }
          cols.push_back({Field::Attr(name, t.ValueOrDie()), std::move(subst)});
          NEXUS_RETURN_NOT_OK(rebuild_work());
        }
        break;
      }
      case OpKind::kProject: {
        std::vector<SymCol> next;
        for (const std::string& name : op.As<ProjectOp>().columns) {
          int i = work->FindField(name);
          if (i < 0) return Refuse("project of unknown column");
          next.push_back(cols[static_cast<size_t>(i)]);
        }
        cols = std::move(next);
        NEXUS_RETURN_NOT_OK(rebuild_work());
        break;
      }
      case OpKind::kAggregate: {
        if (oi + 1 != ops.size()) return Refuse("aggregate mid-chain");
        const auto& agg = op.As<AggregateOp>();
        std::vector<SymCol> narrow;
        AggregateOp spec;
        spec.group_by = agg.group_by;
        for (const std::string& g : agg.group_by) {
          int i = work->FindField(g);
          if (i < 0) return Refuse("group key not visible");
          narrow.push_back(cols[static_cast<size_t>(i)]);
        }
        for (size_t a = 0; a < agg.aggs.size(); ++a) {
          const AggSpec& as = agg.aggs[a];
          AggSpec ns;
          ns.func = as.func;
          ns.output_name = as.output_name;
          if (as.input == nullptr) {
            if (as.func != AggFunc::kCount) {
              return Refuse("input-free non-count aggregate");
            }
          } else {
            Result<DataType> t = InferExprType(*as.input, *work);
            if (!t.ok()) return Refuse("aggregate input inference failed");
            if (!AggResultType(as.func, t.ValueOrDie()).ok()) {
              return Refuse("un-aggregatable input type");
            }
            ExprPtr subst = as.input->SubstituteColumns(mapping());
            Result<DataType> ts = InferExprType(*subst, *source_schema);
            if (!ts.ok() || ts.ValueOrDie() != t.ValueOrDie()) {
              return Refuse("aggregate input type drift");
            }
            std::string nm = StrCat(kFusedAggPrefix, a);
            narrow.push_back({Field::Attr(nm, t.ValueOrDie()), std::move(subst)});
            ns.input = Expr::ColumnRef(nm);
          }
          spec.aggs.push_back(std::move(ns));
        }
        if (narrow.empty()) {
          // A zero-column narrow table cannot carry a row count (pure
          // count(*) with no group keys); leave it to the normal path.
          return Refuse("aggregate with no narrow columns");
        }
        cols = std::move(narrow);
        NEXUS_RETURN_NOT_OK(rebuild_work());
        fp.has_agg = true;
        fp.agg_spec = std::move(spec);
        break;
      }
      default:
        return Refuse("unsupported operator kind");
    }
  }
  if (cols.empty()) return Refuse("empty output schema");

  // Compile predicates and outputs as one shared program: CSE runs across
  // the whole pipeline, and the program cache makes repeat executes free.
  std::vector<ExprPtr> exprs = preds;
  exprs.reserve(preds.size() + cols.size());
  for (const SymCol& c : cols) exprs.push_back(c.expr);
  NEXUS_ASSIGN_OR_RETURN(ExprProgramPtr prog,
                         GetOrCompileProgram(exprs, *source_schema));
  // Defensive: the program's inferred output types must be the schema the
  // chain materializes (they are — both derive from InferExprType).
  for (size_t j = 0; j < cols.size(); ++j) {
    if (prog->out_types[preds.size() + j] != cols[j].field.type) {
      return Refuse("compiled output type drift");
    }
  }
  fp.program = std::move(prog);
  fp.num_preds = static_cast<int>(preds.size());
  fp.out_schema = work;
  fp.fused_ops = static_cast<int>(ops.size());
  return fp;
}

namespace {

// Ascending lanes in [begin, begin + n) of the current morsel where every
// predicate output is valid and true (SQL WHERE: null is not true): the
// first predicate selects into `lanes` (n entries), each later one narrows
// the selection in place, both branch-free.
std::span<const int64_t> SelectLanes(const ExprVM& vm, int num_preds,
                                     int64_t begin, int64_t n,
                                     int64_t* lanes) {
  const VMReg& first = vm.out_reg(0);
  int64_t kept = SelectTrueLanes(
      first.b + begin, first.valid == nullptr ? nullptr : first.valid + begin,
      n, begin, lanes);
  for (int p = 1; p < num_preds; ++p) {
    const VMReg& r = vm.out_reg(p);
    kept = NarrowTrueLanes(r.b, r.valid, lanes, kept);
  }
  return {lanes, static_cast<size_t>(kept)};
}

}  // namespace

Result<TablePtr> ExecuteFused(const FusedPipeline& fp, const TablePtr& source) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "rel.Fused");
  const int64_t n = source->num_rows();
  span.AddCounter("rows_in", n);
  span.AddCounter("fused_ops", fp.fused_ops);
  span.AddCounter("compiled", 1);
  const int nout = fp.out_schema->num_fields();
  auto empty_columns = [&fp, nout] {
    std::vector<Column> cols;
    cols.reserve(static_cast<size_t>(nout));
    for (int j = 0; j < nout; ++j) cols.emplace_back(fp.out_schema->field(j).type);
    return cols;
  };

  // Each morsel fills output pieces it owns, reserved to its range. Pieces
  // stitched in morsel order reproduce the sequential scan exactly (the
  // determinism contract).
  NEXUS_ASSIGN_OR_RETURN(
      std::vector<std::vector<Column>> pieces,
      RunProgramMorsels<std::vector<Column>>(
          fp.program.get(), *source,
          [&](int64_t begin, int64_t end) {
            std::vector<Column> piece = empty_columns();
            for (Column& c : piece) c.Reserve(end - begin);
            return piece;
          },
          [&](const ExprVM& vm, int64_t, std::vector<Column>* piece) {
            if (fp.num_preds == 0) {
              for (int j = 0; j < nout; ++j) {
                vm.AppendOutput(j, &(*piece)[static_cast<size_t>(j)]);
              }
              return;
            }
            int64_t lanes[kSelectBlock] = {};
            for (int64_t b = 0; b < vm.len(); b += kSelectBlock) {
              std::span<const int64_t> kept =
                  SelectLanes(vm, fp.num_preds, b,
                              std::min(kSelectBlock, vm.len() - b), lanes);
              for (int j = 0; j < nout; ++j) {
                vm.AppendOutputLanes(fp.num_preds + j, kept,
                                     &(*piece)[static_cast<size_t>(j)]);
              }
            }
          }));
  std::vector<Column> cols;
  if (pieces.size() == 1) {
    cols = std::move(pieces[0]);
  } else {
    // Concatenate one output column per task, each reserved to the total
    // (inline below one morsel of rows).
    cols = empty_columns();
    int64_t total = 0;
    for (const std::vector<Column>& piece : pieces) total += piece[0].size();
    std::vector<Status> statuses(static_cast<size_t>(nout));
    std::vector<std::function<void()>> concats;
    concats.reserve(static_cast<size_t>(nout));
    for (size_t j = 0; j < static_cast<size_t>(nout); ++j) {
      concats.push_back([&, j] {
        cols[j].Reserve(total);
        for (const std::vector<Column>& piece : pieces) {
          statuses[j] = cols[j].AppendColumn(piece[j]);
          if (!statuses[j].ok()) return;
        }
      });
    }
    ParallelRun(concats, total < kMorselRows ? 1 : 0);
    for (const Status& st : statuses) NEXUS_RETURN_NOT_OK(st);
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr pre,
                         Table::Make(fp.out_schema, std::move(cols)));
  span.AddCounter("rows", pre->num_rows());
  if (!fp.has_agg) return pre;
  // The narrow aggregate runs as a nested alg.Agg span.
  return algebra::LowerAggregate(pre, fp.agg_spec);
}

}  // namespace relational
}  // namespace nexus
