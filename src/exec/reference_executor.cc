#include "exec/reference_executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/parallel.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "expr/eval.h"
#include "telemetry/telemetry.h"

namespace nexus {

namespace {

// Floor division (regrid/window bin coordinates by value, negatives included).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// Canonical string key for a row restricted to `cols`; consistent with
// Value::ToString so Int64(3) and Float64(3.0) key identically ("3").
std::string RowKey(const Table& t, int64_t row, const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) {
    key += t.At(row, c).ToString();
    key += '\x1f';
  }
  return key;
}

std::vector<int> AllColumns(const Table& t) {
  std::vector<int> cols(static_cast<size_t>(t.num_columns()));
  for (int i = 0; i < t.num_columns(); ++i) cols[static_cast<size_t>(i)] = i;
  return cols;
}

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    NEXUS_ASSIGN_OR_RETURN(int i, schema.FindFieldOrError(n));
    out.push_back(i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Aggregation machinery (shared by aggregate, regrid, window).
// ---------------------------------------------------------------------------

struct AggState {
  int64_t count = 0;     // non-null inputs seen
  int64_t isum = 0;      // exact integer sum
  double fsum = 0.0;     // floating sum
  Value min_v, max_v;    // extremes

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_int64()) isum += v.AsInt64();
    if (v.is_numeric()) fsum += v.AsDouble();
    if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
    if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
  }

  Result<Value> Finish(AggFunc func, DataType input_type) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int64(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return input_type == DataType::kInt64 ? Value::Int64(isum)
                                              : Value::Float64(fsum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Float64(fsum / static_cast<double>(count));
      case AggFunc::kMin:
        return min_v;
      case AggFunc::kMax:
        return max_v;
    }
    return Status::Internal("unhandled aggregate");
  }
};

// Grouped aggregation core: rows of `input` are grouped by `group_cols`
// (first-seen order); each AggSpec's input expression is pre-evaluated to a
// column. `count_star` entries (null input) count rows.
Result<TablePtr> RunGroupedAggregate(const Table& input,
                                     const std::vector<int>& group_cols,
                                     const std::vector<AggSpec>& aggs,
                                     SchemaPtr output_schema) {
  std::vector<Column> agg_inputs;
  std::vector<DataType> agg_types;
  for (const AggSpec& a : aggs) {
    if (a.input != nullptr) {
      NEXUS_ASSIGN_OR_RETURN(Column c, EvalExprVector(*a.input, input));
      agg_types.push_back(c.type());
      agg_inputs.push_back(std::move(c));
    } else {
      agg_types.push_back(DataType::kInt64);
      agg_inputs.emplace_back(DataType::kInt64);  // unused placeholder
    }
  }
  std::unordered_map<std::string, size_t> group_index;
  std::vector<int64_t> group_rep_row;          // representative row per group
  std::vector<std::vector<AggState>> states;   // per group, per agg
  for (int64_t r = 0; r < input.num_rows(); ++r) {
    std::string key = RowKey(input, r, group_cols);
    auto [it, inserted] = group_index.emplace(std::move(key), states.size());
    if (inserted) {
      group_rep_row.push_back(r);
      states.emplace_back(aggs.size());
    }
    std::vector<AggState>& gs = states[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].input == nullptr) {
        ++gs[a].count;  // count(*): every row counts
      } else {
        gs[a].Update(agg_inputs[a].GetValue(r));
      }
    }
  }
  // SQL semantics: a global aggregate (no group keys) over an empty input
  // still yields one row (count = 0, sum/min/max = null).
  if (group_cols.empty() && states.empty()) {
    group_rep_row.push_back(0);  // unused: no group columns to gather
    states.emplace_back(aggs.size());
  }
  TableBuilder builder(output_schema);
  builder.Reserve(static_cast<int64_t>(states.size()));
  std::vector<Value> row;
  for (size_t g = 0; g < states.size(); ++g) {
    row.clear();
    for (int c : group_cols) row.push_back(input.At(group_rep_row[g], c));
    for (size_t a = 0; a < aggs.size(); ++a) {
      NEXUS_ASSIGN_OR_RETURN(Value v, states[g][a].Finish(aggs[a].func, agg_types[a]));
      row.push_back(std::move(v));
    }
    NEXUS_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

// Sort order: Value::Compare (nulls first), except that a float64 NaN
// follows every number and ties with NaN — relational::Sort's total order.
int SortCompare(const Value& a, const Value& b) {
  const bool an = a.is_float64() && std::isnan(a.AsDouble());
  const bool bn = b.is_float64() && std::isnan(b.AsDouble());
  if (an || bn) {
    if (a.is_null() || b.is_null()) return a.is_null() ? -1 : 1;
    return static_cast<int>(an) - static_cast<int>(bn);
  }
  return a.Compare(b);
}

}  // namespace

Result<Dataset> ReferenceExecutor::Execute(const Plan& plan) {
  loop_stack_.clear();
  return Exec(plan);
}

Result<TablePtr> ReferenceExecutor::ExecTable(const Plan& plan) {
  NEXUS_ASSIGN_OR_RETURN(Dataset d, Exec(plan));
  return d.AsTable();
}

Result<Dataset> ReferenceExecutor::Exec(const Plan& plan) {
  if (!telemetry::Enabled()) return ExecNode(plan);
  telemetry::SpanGuard span(telemetry::kCategoryOperator, plan.NodeLabel());
  auto result = ExecNode(plan);
  if (result.ok() && span.active()) {
    span.AddCounter("rows", result.ValueOrDie().num_rows());
    span.AddCounter("bytes", result.ValueOrDie().ByteSize());
  }
  return result;
}

Result<Dataset> ReferenceExecutor::ExecNode(const Plan& plan) {
  switch (plan.kind()) {
    case OpKind::kScan: {
      if (catalog_ == nullptr) {
        return Status::PlanError("scan without a catalog");
      }
      return catalog_->Get(plan.As<ScanOp>().table);
    }
    case OpKind::kValues:
      return plan.As<ValuesOp>().data;
    case OpKind::kLoopVar: {
      if (loop_stack_.empty()) {
        return Status::PlanError("loopvar outside iterate at runtime");
      }
      const ExecLoopFrame& frame = loop_stack_.back();
      return plan.As<LoopVarOp>().previous ? frame.previous : frame.current;
    }
    case OpKind::kSelect: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                             EvalPredicate(*plan.As<SelectOp>().predicate, *in));
      return Dataset(in->TakeRows(sel));
    }
    case OpKind::kProject: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(std::vector<int> cols,
                             ResolveColumns(*in->schema(), plan.As<ProjectOp>().columns));
      std::vector<Field> fields;
      std::vector<Column> out_cols;
      for (int c : cols) {
        fields.push_back(in->schema()->field(c));
        out_cols.push_back(in->column(c));
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Table::Make(schema, std::move(out_cols)));
      return Dataset(out);
    }
    case OpKind::kExtend: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      std::vector<Field> fields = in->schema()->fields();
      std::vector<Column> cols = in->columns();
      TablePtr working = in;
      for (const auto& [name, expr] : plan.As<ExtendOp>().defs) {
        NEXUS_ASSIGN_OR_RETURN(Column c, EvalExprVector(*expr, *working));
        fields.push_back(Field::Attr(name, c.type()));
        cols.push_back(std::move(c));
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr s, Schema::Make(fields));
        NEXUS_ASSIGN_OR_RETURN(working, Table::Make(s, cols));
      }
      return Dataset(working);
    }
    case OpKind::kJoin: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr left, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr right, ExecTable(*plan.child(1)));
      const auto& op = plan.As<JoinOp>();
      NEXUS_ASSIGN_OR_RETURN(std::vector<int> lk,
                             ResolveColumns(*left->schema(), op.left_keys));
      NEXUS_ASSIGN_OR_RETURN(std::vector<int> rk,
                             ResolveColumns(*right->schema(), op.right_keys));
      // Hash the right side.
      std::unordered_map<std::string, std::vector<int64_t>> hash;
      for (int64_t r = 0; r < right->num_rows(); ++r) {
        // SQL equi-join semantics: null keys never match.
        bool has_null_key = false;
        for (int c : rk) {
          if (right->column(c).IsNull(r)) {
            has_null_key = true;
            break;
          }
        }
        if (!has_null_key) hash[RowKey(*right, r, rk)].push_back(r);
      }
      // Output layout: left fields, then right non-key fields (tags cleared).
      std::vector<int> right_out_cols;
      std::vector<Field> fields = left->schema()->fields();
      for (int c = 0; c < right->num_columns(); ++c) {
        const std::string& n = right->schema()->field(c).name;
        if (std::find(op.right_keys.begin(), op.right_keys.end(), n) !=
            op.right_keys.end()) {
          continue;
        }
        Field f = right->schema()->field(c);
        f.is_dimension = false;
        fields.push_back(f);
        right_out_cols.push_back(c);
      }
      bool semi_anti = op.type == JoinType::kSemi || op.type == JoinType::kAnti;
      SchemaPtr out_schema;
      if (semi_anti) {
        out_schema = left->schema();
      } else {
        NEXUS_ASSIGN_OR_RETURN(out_schema, Schema::Make(std::move(fields)));
      }
      // Residual scope: left fields + all right fields not already on the left.
      SchemaPtr residual_schema;
      std::vector<int> residual_right_cols;
      if (op.residual != nullptr) {
        std::vector<Field> combined = left->schema()->fields();
        for (int c = 0; c < right->num_columns(); ++c) {
          const Field& f = right->schema()->field(c);
          if (left->schema()->FindField(f.name) >= 0) continue;
          combined.push_back(f);
          residual_right_cols.push_back(c);
        }
        NEXUS_ASSIGN_OR_RETURN(residual_schema, Schema::Make(std::move(combined)));
      }
      auto residual_passes = [&](int64_t lr, int64_t rr) -> Result<bool> {
        if (op.residual == nullptr) return true;
        std::vector<Value> combined = left->Row(lr);
        for (int c : residual_right_cols) combined.push_back(right->At(rr, c));
        NEXUS_ASSIGN_OR_RETURN(Value v,
                               EvalExprRow(*op.residual, *residual_schema, combined));
        return !v.is_null() && v.AsBool();
      };
      // Morsel-parallel probe: each morsel of left rows appends its matches
      // to a private builder; the per-morsel tables are concatenated in
      // morsel order below, reproducing the sequential row order exactly.
      // (A sequential run covers all rows in one call landing in slot 0.)
      const int64_t nl = left->num_rows();
      const int64_t grain = kMorselRows;
      const size_t morsels =
          static_cast<size_t>(std::max<int64_t>(1, (nl + grain - 1) / grain));
      std::vector<TablePtr> parts(morsels);
      std::vector<Status> statuses(morsels, Status::OK());
      ParallelFor(nl, grain, [&](int64_t begin, int64_t end) {
        size_t slot = static_cast<size_t>(begin / grain);
        statuses[slot] = [&]() -> Status {
          TableBuilder builder(out_schema);
          std::vector<Value> row;
          for (int64_t lr = begin; lr < end; ++lr) {
            bool null_key = false;
            for (int c : lk) {
              if (left->column(c).IsNull(lr)) {
                null_key = true;
                break;
              }
            }
            const std::vector<int64_t>* matches = nullptr;
            if (!null_key) {
              auto it = hash.find(RowKey(*left, lr, lk));
              if (it != hash.end()) matches = &it->second;
            }
            int64_t match_count = 0;
            if (matches != nullptr) {
              for (int64_t rr : *matches) {
                NEXUS_ASSIGN_OR_RETURN(bool pass, residual_passes(lr, rr));
                if (!pass) continue;
                ++match_count;
                if (op.type == JoinType::kSemi || op.type == JoinType::kAnti) break;
                row = left->Row(lr);
                for (int c : right_out_cols) row.push_back(right->At(rr, c));
                NEXUS_RETURN_NOT_OK(builder.AppendRow(row));
              }
            }
            if (match_count == 0 && op.type == JoinType::kLeft) {
              row = left->Row(lr);
              for (size_t i = 0; i < right_out_cols.size(); ++i) {
                row.push_back(Value::Null());
              }
              NEXUS_RETURN_NOT_OK(builder.AppendRow(row));
            }
            if ((op.type == JoinType::kSemi && match_count > 0) ||
                (op.type == JoinType::kAnti && match_count == 0)) {
              NEXUS_RETURN_NOT_OK(builder.AppendRow(left->Row(lr)));
            }
          }
          NEXUS_ASSIGN_OR_RETURN(parts[slot], builder.Finish());
          return Status::OK();
        }();
      });
      for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);
      std::vector<Column> joined_cols;
      for (const Field& f : out_schema->fields()) joined_cols.emplace_back(f.type);
      for (const TablePtr& part : parts) {
        if (part == nullptr) continue;
        for (int c = 0; c < part->num_columns(); ++c) {
          NEXUS_RETURN_NOT_OK(
              joined_cols[static_cast<size_t>(c)].AppendColumn(part->column(c)));
        }
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             Table::Make(out_schema, std::move(joined_cols)));
      return Dataset(out);
    }
    case OpKind::kAggregate: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& op = plan.As<AggregateOp>();
      NEXUS_ASSIGN_OR_RETURN(std::vector<int> group_cols,
                             ResolveColumns(*in->schema(), op.group_by));
      std::vector<Field> fields;
      for (int c : group_cols) fields.push_back(in->schema()->field(c));
      for (const AggSpec& a : op.aggs) {
        DataType input_type = DataType::kInt64;
        if (a.input != nullptr) {
          NEXUS_ASSIGN_OR_RETURN(input_type, InferExprType(*a.input, *in->schema()));
        }
        NEXUS_ASSIGN_OR_RETURN(DataType out_t, AggResultType(a.func, input_type));
        fields.push_back(Field::Attr(a.output_name, out_t));
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             RunGroupedAggregate(*in, group_cols, op.aggs, schema));
      return Dataset(out);
    }
    case OpKind::kSort: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& keys = plan.As<SortOp>().keys;
      std::vector<int> key_cols;
      for (const SortKey& k : keys) {
        NEXUS_ASSIGN_OR_RETURN(int c, in->schema()->FindFieldOrError(k.column));
        key_cols.push_back(c);
      }
      std::vector<int64_t> order(static_cast<size_t>(in->num_rows()));
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
      std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        for (size_t k = 0; k < keys.size(); ++k) {
          int cmp = SortCompare(in->At(a, key_cols[k]), in->At(b, key_cols[k]));
          if (cmp != 0) return keys[k].ascending ? cmp < 0 : cmp > 0;
        }
        return false;
      });
      return Dataset(in->TakeRows(order));
    }
    case OpKind::kLimit: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& op = plan.As<LimitOp>();
      return Dataset(in->Slice(op.offset, op.limit));
    }
    case OpKind::kDistinct: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      std::vector<int> all = AllColumns(*in);
      std::unordered_map<std::string, bool> seen;
      std::vector<int64_t> keep;
      for (int64_t r = 0; r < in->num_rows(); ++r) {
        if (seen.emplace(RowKey(*in, r, all), true).second) keep.push_back(r);
      }
      return Dataset(in->TakeRows(keep));
    }
    case OpKind::kUnion: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr left, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr right, ExecTable(*plan.child(1)));
      if (!left->schema()->Equals(*right->schema())) {
        return Status::TypeError("union schema mismatch at runtime");
      }
      std::vector<Column> cols = left->columns();
      for (size_t c = 0; c < cols.size(); ++c) {
        NEXUS_RETURN_NOT_OK(cols[c].AppendColumn(right->column(static_cast<int>(c))));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             Table::Make(left->schema(), std::move(cols)));
      return Dataset(out);
    }
    case OpKind::kRename: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      std::vector<Field> fields = in->schema()->fields();
      for (const auto& [from, to] : plan.As<RenameOp>().mapping) {
        NEXUS_ASSIGN_OR_RETURN(int i, in->schema()->FindFieldOrError(from));
        fields[static_cast<size_t>(i)].name = to;
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Table::Make(schema, in->columns()));
      return Dataset(out);
    }
    case OpKind::kRebox: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& op = plan.As<ReboxOp>();
      std::vector<Field> fields = in->schema()->fields();
      for (Field& f : fields) f.is_dimension = false;
      for (const std::string& d : op.dims) {
        NEXUS_ASSIGN_OR_RETURN(int i, in->schema()->FindFieldOrError(d));
        if (in->column(i).has_nulls()) {
          return Status::InvalidArgument(
              StrCat("rebox dimension ", d, " contains nulls"));
        }
        fields[static_cast<size_t>(i)].is_dimension = true;
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Table::Make(schema, in->columns()));
      return Dataset(out);
    }
    case OpKind::kUnbox: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(
          TablePtr out, Table::Make(in->schema()->WithoutDimensions(), in->columns()));
      return Dataset(out);
    }
    case OpKind::kSlice: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      std::vector<int64_t> keep;
      const auto& ranges = plan.As<SliceOp>().ranges;
      std::vector<int> dim_cols;
      for (const DimRange& r : ranges) {
        NEXUS_ASSIGN_OR_RETURN(int c, in->schema()->FindFieldOrError(r.dim));
        dim_cols.push_back(c);
      }
      for (int64_t row = 0; row < in->num_rows(); ++row) {
        bool inside = true;
        for (size_t i = 0; i < ranges.size(); ++i) {
          int64_t v = in->column(dim_cols[i]).ints()[static_cast<size_t>(row)];
          if (v < ranges[i].lo || v >= ranges[i].hi) {
            inside = false;
            break;
          }
        }
        if (inside) keep.push_back(row);
      }
      return Dataset(in->TakeRows(keep));
    }
    case OpKind::kShift: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      std::vector<Column> cols = in->columns();
      for (const auto& [dim, delta] : plan.As<ShiftOp>().offsets) {
        NEXUS_ASSIGN_OR_RETURN(int c, in->schema()->FindFieldOrError(dim));
        std::vector<int64_t> shifted = cols[static_cast<size_t>(c)].ints();
        for (int64_t& v : shifted) v += delta;
        cols[static_cast<size_t>(c)] = Column::FromInt64(std::move(shifted));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Table::Make(in->schema(), std::move(cols)));
      return Dataset(out);
    }
    case OpKind::kRegrid: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& op = plan.As<RegridOp>();
      // Bin each dimension by its factor (1 when unlisted), then aggregate
      // numeric attributes per bin.
      std::vector<int> dim_cols = in->schema()->DimensionIndices();
      std::vector<int64_t> factors(dim_cols.size(), 1);
      for (const auto& [dim, f] : op.factors) {
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          if (in->schema()->field(dim_cols[d]).name == dim) factors[d] = f;
        }
      }
      std::vector<Column> binned_cols = in->columns();
      for (size_t d = 0; d < dim_cols.size(); ++d) {
        std::vector<int64_t> binned =
            in->column(dim_cols[d]).ints();
        for (int64_t& v : binned) v = FloorDiv(v, factors[d]);
        binned_cols[static_cast<size_t>(dim_cols[d])] =
            Column::FromInt64(std::move(binned));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr binned,
                             Table::Make(in->schema(), std::move(binned_cols)));
      std::vector<AggSpec> aggs;
      std::vector<Field> fields;
      std::vector<std::string> group_names;
      for (int c : dim_cols) {
        fields.push_back(in->schema()->field(c));
        group_names.push_back(in->schema()->field(c).name);
      }
      for (int c : in->schema()->AttributeIndices()) {
        const Field& f = in->schema()->field(c);
        if (!IsNumeric(f.type)) continue;
        NEXUS_ASSIGN_OR_RETURN(DataType out_t, AggResultType(op.func, f.type));
        fields.push_back(Field::Attr(f.name, out_t));
        aggs.push_back(AggSpec{op.func, Expr::ColumnRef(f.name), f.name});
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out,
                             RunGroupedAggregate(*binned, dim_cols, aggs, schema));
      return Dataset(out);
    }
    case OpKind::kTranspose: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& order = plan.As<TransposeOp>().dim_order;
      std::vector<Field> fields;
      std::vector<Column> cols;
      for (const std::string& d : order) {
        NEXUS_ASSIGN_OR_RETURN(int c, in->schema()->FindFieldOrError(d));
        fields.push_back(in->schema()->field(c));
        cols.push_back(in->column(c));
      }
      for (int c : in->schema()->AttributeIndices()) {
        fields.push_back(in->schema()->field(c));
        cols.push_back(in->column(c));
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, Table::Make(schema, std::move(cols)));
      return Dataset(out);
    }
    case OpKind::kWindow: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr in, ExecTable(*plan.child(0)));
      const auto& op = plan.As<WindowOp>();
      std::vector<int> dim_cols = in->schema()->DimensionIndices();
      std::vector<int64_t> radii(dim_cols.size(), 0);
      for (const auto& [dim, r] : op.radii) {
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          if (in->schema()->field(dim_cols[d]).name == dim) radii[d] = r;
        }
      }
      // Index cells by coordinates.
      std::map<std::vector<int64_t>, int64_t> index;
      std::vector<int64_t> coords(dim_cols.size());
      for (int64_t r = 0; r < in->num_rows(); ++r) {
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          coords[d] = in->column(dim_cols[d]).ints()[static_cast<size_t>(r)];
        }
        index[coords] = r;
      }
      std::vector<int> attr_cols;
      std::vector<Field> fields;
      for (int c : dim_cols) fields.push_back(in->schema()->field(c));
      for (int c : in->schema()->AttributeIndices()) {
        const Field& f = in->schema()->field(c);
        if (!IsNumeric(f.type)) continue;
        NEXUS_ASSIGN_OR_RETURN(DataType out_t, AggResultType(op.func, f.type));
        fields.push_back(Field::Attr(f.name, out_t));
        attr_cols.push_back(c);
      }
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      TableBuilder builder(schema);
      std::vector<Value> row;
      // Enumerate the window box around each occupied cell.
      std::vector<int64_t> offset(dim_cols.size());
      for (int64_t r = 0; r < in->num_rows(); ++r) {
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          coords[d] = in->column(dim_cols[d]).ints()[static_cast<size_t>(r)];
        }
        std::vector<AggState> states(attr_cols.size());
        std::vector<DataType> types;
        for (int c : attr_cols) types.push_back(in->schema()->field(c).type);
        std::fill(offset.begin(), offset.end(), 0);
        for (size_t d = 0; d < offset.size(); ++d) offset[d] = -radii[d];
        while (true) {
          std::vector<int64_t> probe(coords);
          for (size_t d = 0; d < probe.size(); ++d) probe[d] += offset[d];
          auto it = index.find(probe);
          if (it != index.end()) {
            for (size_t a = 0; a < attr_cols.size(); ++a) {
              states[a].Update(in->At(it->second, attr_cols[a]));
            }
          }
          // Odometer increment over the box.
          size_t d = 0;
          for (; d < offset.size(); ++d) {
            if (offset[d] < radii[d]) {
              ++offset[d];
              for (size_t e = 0; e < d; ++e) offset[e] = -radii[e];
              break;
            }
          }
          if (d == offset.size()) break;
        }
        row.clear();
        for (int64_t c : coords) row.push_back(Value::Int64(c));
        for (size_t a = 0; a < attr_cols.size(); ++a) {
          NEXUS_ASSIGN_OR_RETURN(Value v, states[a].Finish(op.func, types[a]));
          row.push_back(std::move(v));
        }
        NEXUS_RETURN_NOT_OK(builder.AppendRow(row));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, builder.Finish());
      return Dataset(out);
    }
    case OpKind::kElemWise: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr left, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr right, ExecTable(*plan.child(1)));
      BinaryOp op = plan.As<ElemWiseOpSpec>().op;
      std::vector<int> ld = left->schema()->DimensionIndices();
      std::vector<int> rd = right->schema()->DimensionIndices();
      int la = left->schema()->AttributeIndices().at(0);
      int ra = right->schema()->AttributeIndices().at(0);
      std::unordered_map<std::string, int64_t> rindex;
      for (int64_t r = 0; r < right->num_rows(); ++r) {
        rindex[RowKey(*right, r, rd)] = r;
      }
      DataType lt = left->schema()->field(la).type;
      DataType rt = right->schema()->field(ra).type;
      NEXUS_ASSIGN_OR_RETURN(DataType vt, CommonNumericType(lt, rt));
      if (op == BinaryOp::kDiv) vt = DataType::kFloat64;
      std::vector<Field> fields;
      for (int c : ld) fields.push_back(left->schema()->field(c));
      fields.push_back(Field::Attr(left->schema()->field(la).name, vt));
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
      TableBuilder builder(schema);
      std::vector<Value> row;
      Schema pair_schema({Field::Attr("l", lt), Field::Attr("r", rt)});
      ExprPtr formula = Expr::Binary(op, Expr::ColumnRef("l"), Expr::ColumnRef("r"));
      for (int64_t r = 0; r < left->num_rows(); ++r) {
        auto it = rindex.find(RowKey(*left, r, ld));
        if (it == rindex.end()) continue;  // cell-wise ops intersect occupancy
        row.clear();
        for (int c : ld) row.push_back(left->At(r, c));
        NEXUS_ASSIGN_OR_RETURN(
            Value v, EvalExprRow(*formula, pair_schema,
                                 {left->At(r, la), right->At(it->second, ra)}));
        NEXUS_ASSIGN_OR_RETURN(Value cast, v.CastTo(vt));
        row.push_back(std::move(cast));
        NEXUS_RETURN_NOT_OK(builder.AppendRow(row));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, builder.Finish());
      return Dataset(out);
    }
    case OpKind::kMatMul: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr left, ExecTable(*plan.child(0)));
      NEXUS_ASSIGN_OR_RETURN(TablePtr right, ExecTable(*plan.child(1)));
      const auto& op = plan.As<MatMulOp>();
      std::vector<int> ld = left->schema()->DimensionIndices();
      std::vector<int> rd = right->schema()->DimensionIndices();
      if (ld.size() != 2 || rd.size() != 2) {
        return Status::PlanError("matmul inputs must be 2-d at runtime");
      }
      int la = left->schema()->AttributeIndices().at(0);
      int ra = right->schema()->AttributeIndices().at(0);
      // Group the right side by its contraction coordinate.
      std::unordered_map<int64_t, std::vector<std::pair<int64_t, double>>> rows_of_k;
      for (int64_t r = 0; r < right->num_rows(); ++r) {
        int64_t k = right->column(rd[0]).ints()[static_cast<size_t>(r)];
        int64_t c = right->column(rd[1]).ints()[static_cast<size_t>(r)];
        rows_of_k[k].emplace_back(c, right->column(ra).NumericAt(r));
      }
      // Accumulate the sparse product.
      std::map<std::pair<int64_t, int64_t>, double> acc;
      for (int64_t r = 0; r < left->num_rows(); ++r) {
        int64_t i = left->column(ld[0]).ints()[static_cast<size_t>(r)];
        int64_t k = left->column(ld[1]).ints()[static_cast<size_t>(r)];
        auto it = rows_of_k.find(k);
        if (it == rows_of_k.end()) continue;
        double a = left->column(la).NumericAt(r);
        for (const auto& [c, b] : it->second) acc[{i, c}] += a * b;
      }
      DataType lt = left->schema()->field(la).type;
      DataType rt = right->schema()->field(ra).type;
      NEXUS_ASSIGN_OR_RETURN(DataType vt, CommonNumericType(lt, rt));
      std::string row_name = left->schema()->field(ld[0]).name;
      std::string col_name = right->schema()->field(rd[1]).name;
      if (col_name == row_name) col_name += "_2";
      NEXUS_ASSIGN_OR_RETURN(
          SchemaPtr schema,
          Schema::Make({Field::Dim(row_name), Field::Dim(col_name),
                        Field::Attr(op.result_attr, vt)}));
      TableBuilder builder(schema);
      for (const auto& [rc, v] : acc) {
        // MatMul output is sparse: zero-valued sums are not materialized
        // (keeps table, array, and linear-algebra providers agreeing).
        if (v == 0.0) continue;
        Value val = vt == DataType::kInt64
                        ? Value::Int64(static_cast<int64_t>(std::llround(v)))
                        : Value::Float64(v);
        NEXUS_RETURN_NOT_OK(builder.AppendRow(
            {Value::Int64(rc.first), Value::Int64(rc.second), val}));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, builder.Finish());
      return Dataset(out);
    }
    case OpKind::kPageRank: {
      NEXUS_ASSIGN_OR_RETURN(TablePtr edges, ExecTable(*plan.child(0)));
      const auto& op = plan.As<PageRankOp>();
      NEXUS_ASSIGN_OR_RETURN(int sc, edges->schema()->FindFieldOrError(op.src_col));
      NEXUS_ASSIGN_OR_RETURN(int dc, edges->schema()->FindFieldOrError(op.dst_col));
      // Compact node ids.
      std::map<int64_t, int64_t> node_id;
      const auto& src = edges->column(sc).ints();
      const auto& dst = edges->column(dc).ints();
      for (int64_t v : src) node_id.emplace(v, 0);
      for (int64_t v : dst) node_id.emplace(v, 0);
      int64_t n = 0;
      for (auto& [v, id] : node_id) id = n++;
      std::vector<int64_t> out_degree(static_cast<size_t>(n), 0);
      std::vector<std::pair<int64_t, int64_t>> edge_list;
      edge_list.reserve(src.size());
      for (size_t e = 0; e < src.size(); ++e) {
        int64_t s = node_id[src[e]], d = node_id[dst[e]];
        ++out_degree[static_cast<size_t>(s)];
        edge_list.emplace_back(s, d);
      }
      std::vector<double> rank(static_cast<size_t>(n), n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
      std::vector<double> next(static_cast<size_t>(n));
      for (int64_t iter = 0; iter < op.max_iters; ++iter) {
        double dangling = 0.0;
        for (int64_t v = 0; v < n; ++v) {
          if (out_degree[static_cast<size_t>(v)] == 0) {
            dangling += rank[static_cast<size_t>(v)];
          }
        }
        double base = (1.0 - op.damping) / static_cast<double>(n) +
                      op.damping * dangling / static_cast<double>(n);
        std::fill(next.begin(), next.end(), base);
        for (const auto& [s, d] : edge_list) {
          next[static_cast<size_t>(d)] +=
              op.damping * rank[static_cast<size_t>(s)] /
              static_cast<double>(out_degree[static_cast<size_t>(s)]);
        }
        double delta = 0.0;
        for (int64_t v = 0; v < n; ++v) {
          delta += std::fabs(next[static_cast<size_t>(v)] - rank[static_cast<size_t>(v)]);
        }
        rank.swap(next);
        ++iterations_run_;
        if (delta < op.epsilon) break;
      }
      NEXUS_ASSIGN_OR_RETURN(
          SchemaPtr schema,
          Schema::Make({Field::Dim("node"), Field::Attr("rank", DataType::kFloat64)}));
      TableBuilder builder(schema);
      for (const auto& [v, id] : node_id) {
        NEXUS_RETURN_NOT_OK(builder.AppendRow(
            {Value::Int64(v), Value::Float64(rank[static_cast<size_t>(id)])}));
      }
      NEXUS_ASSIGN_OR_RETURN(TablePtr out, builder.Finish());
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
        ++iterations_run_;
        if (op.measure != nullptr) {
          loop_stack_.push_back(ExecLoopFrame{next.ValueOrDie(), state});
          auto measured = Exec(*op.measure);
          loop_stack_.pop_back();
          NEXUS_RETURN_NOT_OK(measured.status());
          NEXUS_ASSIGN_OR_RETURN(TablePtr mt, measured.ValueOrDie().AsTable());
          if (mt->num_rows() != 1 || mt->num_columns() != 1) {
            return Status::PlanError(
                StrCat("iterate measure must yield exactly one cell, got ",
                       mt->num_rows(), " rows"));
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
      // Exchange is a physical placement marker; data-wise it is identity.
      return Exec(*plan.child(0));
  }
  return Status::Internal("unhandled operator in reference executor");
}

}  // namespace nexus
