#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <set>

#include "common/str_util.h"
#include "core/schema_inference.h"
#include "expr/builder.h"
#include "optimizer/cardinality.h"
#include "optimizer/fold.h"
#include "optimizer/join_order.h"
#include "optimizer/lower_semiring.h"

namespace nexus {

namespace {

using namespace nexus::exprs;  // NOLINT

// Flattens an AND tree into conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kBinary && e->binary_op() == BinaryOp::kAnd) {
    SplitConjuncts(e->child(0), out);
    SplitConjuncts(e->child(1), out);
    return;
  }
  out->push_back(e);
}

bool RefsSubsetOf(const Expr& e, const Schema& schema) {
  for (const std::string& r : e.ColumnRefs()) {
    if (schema.FindField(r) < 0) return false;
  }
  return true;
}

class Optimizer {
 public:
  Optimizer(const Catalog& catalog, const OptimizerOptions& options,
            OptimizerStats* stats)
      : options_(options), stats_(stats) {
    ctx_.catalog = &catalog;
  }

  Result<PlanPtr> Run(const PlanPtr& plan) {
    PlanPtr p = plan;
    if (options_.fold_constants) {
      NEXUS_ASSIGN_OR_RETURN(p, FoldPass(p));
    }
    if (options_.push_selections) {
      for (int pass = 0; pass < options_.max_passes; ++pass) {
        bool changed = false;
        NEXUS_ASSIGN_OR_RETURN(p, PushdownPass(p, &changed));
        if (!changed) break;
      }
    }
    if (options_.reorder_joins) {
      // After pushdown: filters sit on the join inputs, so the cost model
      // sees post-filter cardinalities when scoring orders.
      NEXUS_ASSIGN_OR_RETURN(
          p, ReorderJoins(p, *ctx_.catalog,
                          stats_ != nullptr ? &stats_->joins_reordered : nullptr));
    }
    if (options_.recognize_intent) {
      NEXUS_ASSIGN_OR_RETURN(p, RecognizePass(p));
    }
    if (options_.lower_semiring && stats_ != nullptr) {
      // After intent recognition, so recovered MatMul/PageRank nodes count.
      // Recognition only: the engines do the actual routing at execution.
      stats_->ops_lowered = CountLowerableOps(*p);
    }
    if (options_.prune_columns) {
      NEXUS_ASSIGN_OR_RETURN(p, Prune(p, std::nullopt));
    }
    return p;
  }

 private:
  Result<SchemaPtr> SchemaOf(const PlanPtr& p) { return InferSchema(*p, &ctx_); }

  void CountFold(const ExprPtr& before, const ExprPtr& after) {
    if (stats_ != nullptr && !before->Equals(*after)) {
      ++stats_->expressions_folded;
    }
  }

  ExprPtr Fold(const ExprPtr& e) {
    ExprPtr f = FoldConstants(e);
    CountFold(e, f);
    return f;
  }

  // --- pass 1: fold every embedded expression --------------------------------
  Result<PlanPtr> FoldPass(const PlanPtr& plan) {
    std::vector<PlanPtr> children;
    children.reserve(plan->children().size());
    for (const PlanPtr& c : plan->children()) {
      NEXUS_ASSIGN_OR_RETURN(PlanPtr nc, FoldPass(c));
      children.push_back(std::move(nc));
    }
    switch (plan->kind()) {
      case OpKind::kSelect:
        return Plan::Select(children[0], Fold(plan->As<SelectOp>().predicate));
      case OpKind::kExtend: {
        std::vector<std::pair<std::string, ExprPtr>> defs;
        for (const auto& [name, e] : plan->As<ExtendOp>().defs) {
          defs.emplace_back(name, Fold(e));
        }
        return Plan::Extend(children[0], std::move(defs));
      }
      case OpKind::kJoin: {
        JoinOp op = plan->As<JoinOp>();
        if (op.residual != nullptr) op.residual = Fold(op.residual);
        return Plan::Join(children[0], children[1], op.type, op.left_keys,
                          op.right_keys, op.residual);
      }
      case OpKind::kAggregate: {
        AggregateOp op = plan->As<AggregateOp>();
        for (AggSpec& a : op.aggs) {
          if (a.input != nullptr) a.input = Fold(a.input);
        }
        return Plan::Aggregate(children[0], op.group_by, op.aggs);
      }
      case OpKind::kIterate: {
        IterateOp op = plan->As<IterateOp>();
        NEXUS_ASSIGN_OR_RETURN(op.body, FoldPass(op.body));
        if (op.measure != nullptr) {
          NEXUS_ASSIGN_OR_RETURN(op.measure, FoldPass(op.measure));
        }
        return Plan::Iterate(children[0], std::move(op));
      }
      default:
        return plan->WithChildren(std::move(children));
    }
  }

  // --- pass 2: selection pushdown --------------------------------------------
  Result<PlanPtr> PushdownPass(const PlanPtr& plan, bool* changed) {
    // Rebuild children first (bottom-up), handling Iterate scopes.
    std::vector<PlanPtr> children;
    children.reserve(plan->children().size());
    for (const PlanPtr& c : plan->children()) {
      NEXUS_ASSIGN_OR_RETURN(PlanPtr nc, PushdownPass(c, changed));
      children.push_back(std::move(nc));
    }
    PlanPtr node = plan->WithChildren(children);
    if (plan->kind() == OpKind::kIterate) {
      IterateOp op = plan->As<IterateOp>();
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr init_schema, SchemaOf(children[0]));
      ctx_.loop_stack.push_back(init_schema);
      auto body = PushdownPass(op.body, changed);
      Result<PlanPtr> measure = PlanPtr(nullptr);
      if (body.ok() && op.measure != nullptr) {
        measure = PushdownPass(op.measure, changed);
      }
      ctx_.loop_stack.pop_back();
      NEXUS_ASSIGN_OR_RETURN(op.body, body);
      if (op.measure != nullptr) {
        NEXUS_ASSIGN_OR_RETURN(op.measure, measure);
      }
      return Plan::Iterate(children[0], std::move(op));
    }
    // Limit pushdown: Limit commutes with row-preserving 1:1 operators
    // (project/extend/rename/rebox/unbox), shrinking their input. Adjacent
    // limits compose.
    if (node->kind() == OpKind::kLimit) {
      const auto& op = node->As<LimitOp>();
      const PlanPtr& input = node->child(0);
      auto moved = [&](PlanPtr result) {
        *changed = true;
        if (stats_ != nullptr) ++stats_->selections_pushed;
        return result;
      };
      switch (input->kind()) {
        case OpKind::kProject:
          return moved(Plan::Project(
              Plan::Limit(input->child(0), op.limit, op.offset),
              input->As<ProjectOp>().columns));
        case OpKind::kExtend:
          return moved(Plan::Extend(
              Plan::Limit(input->child(0), op.limit, op.offset),
              input->As<ExtendOp>().defs));
        case OpKind::kRename:
          return moved(Plan::Rename(
              Plan::Limit(input->child(0), op.limit, op.offset),
              input->As<RenameOp>().mapping));
        case OpKind::kUnbox:
          return moved(
              Plan::Unbox(Plan::Limit(input->child(0), op.limit, op.offset)));
        case OpKind::kRebox: {
          const auto& rb = input->As<ReboxOp>();
          return moved(Plan::Rebox(
              Plan::Limit(input->child(0), op.limit, op.offset), rb.dims,
              rb.chunk_size));
        }
        case OpKind::kLimit: {
          // limit[n1 offset o1] over limit[n2 offset o2]: the outer window
          // applies within the inner one.
          const auto& inner = input->As<LimitOp>();
          int64_t offset = inner.offset + op.offset;
          int64_t remaining = std::max<int64_t>(0, inner.limit - op.offset);
          int64_t limit = std::min(op.limit, remaining);
          return moved(Plan::Limit(input->child(0), limit, offset));
        }
        default:
          return node;
      }
    }
    if (node->kind() != OpKind::kSelect) return node;

    const ExprPtr& pred = node->As<SelectOp>().predicate;
    const PlanPtr& input = node->child(0);
    auto pushed = [&](PlanPtr result) {
      *changed = true;
      if (stats_ != nullptr) ++stats_->selections_pushed;
      return result;
    };
    switch (input->kind()) {
      case OpKind::kSelect: {
        // Merge adjacent selections.
        return pushed(Plan::Select(input->child(0),
                                   And(input->As<SelectOp>().predicate, pred)));
      }
      case OpKind::kProject:
        return pushed(Plan::Project(Plan::Select(input->child(0), pred),
                                    input->As<ProjectOp>().columns));
      case OpKind::kExtend: {
        const auto& defs = input->As<ExtendOp>().defs;
        // Inline definitions into the predicate, then push below. Later defs
        // may reference earlier ones, so substitute to fixpoint and verify
        // every remaining reference resolves against the extend's input.
        ExprPtr inlined = pred;
        for (size_t i = 0; i <= defs.size(); ++i) {
          inlined = inlined->SubstituteColumns(defs);
        }
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr below, SchemaOf(input->child(0)));
        if (!RefsSubsetOf(*inlined, *below)) return node;
        return pushed(Plan::Extend(Plan::Select(input->child(0), inlined), defs));
      }
      case OpKind::kRename: {
        std::vector<std::pair<std::string, std::string>> reverse;
        for (const auto& [from, to] : input->As<RenameOp>().mapping) {
          reverse.emplace_back(to, from);
        }
        return pushed(Plan::Rename(
            Plan::Select(input->child(0), pred->RenameColumns(reverse)),
            input->As<RenameOp>().mapping));
      }
      case OpKind::kSort:
        return pushed(Plan::Sort(Plan::Select(input->child(0), pred),
                                 input->As<SortOp>().keys));
      case OpKind::kDistinct:
        return pushed(Plan::Distinct(Plan::Select(input->child(0), pred)));
      case OpKind::kRebox: {
        const auto& op = input->As<ReboxOp>();
        return pushed(Plan::Rebox(Plan::Select(input->child(0), pred), op.dims,
                                  op.chunk_size));
      }
      case OpKind::kUnbox:
        return pushed(Plan::Unbox(Plan::Select(input->child(0), pred)));
      case OpKind::kSlice:
        return pushed(Plan::Slice(Plan::Select(input->child(0), pred),
                                  input->As<SliceOp>().ranges));
      case OpKind::kUnion:
        return pushed(Plan::Union(Plan::Select(input->child(0), pred),
                                  Plan::Select(input->child(1), pred)));
      case OpKind::kJoin: {
        const auto& op = input->As<JoinOp>();
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr left_schema, SchemaOf(input->child(0)));
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr right_schema, SchemaOf(input->child(1)));
        std::vector<ExprPtr> conjuncts;
        SplitConjuncts(pred, &conjuncts);
        std::vector<ExprPtr> to_left, to_right, keep;
        bool right_pushable = op.type == JoinType::kInner;
        for (const ExprPtr& c : conjuncts) {
          if (RefsSubsetOf(*c, *left_schema)) {
            to_left.push_back(c);
          } else if (right_pushable && RefsSubsetOf(*c, *right_schema)) {
            to_right.push_back(c);
          } else {
            keep.push_back(c);
          }
        }
        if (to_left.empty() && to_right.empty()) return node;
        PlanPtr l = input->child(0);
        PlanPtr r = input->child(1);
        if (!to_left.empty()) l = Plan::Select(l, AndAll(to_left));
        if (!to_right.empty()) r = Plan::Select(r, AndAll(to_right));
        PlanPtr j = Plan::Join(l, r, op.type, op.left_keys, op.right_keys,
                               op.residual);
        if (!keep.empty()) j = Plan::Select(j, AndAll(keep));
        *changed = true;
        if (stats_ != nullptr) {
          stats_->selections_pushed +=
              static_cast<int64_t>(to_left.size() + to_right.size());
        }
        return j;
      }
      default:
        return node;
    }
  }

  // --- pass 3: intent recognition --------------------------------------------

  // Matches Select(sum != 0, Aggregate(sum(p) by [g1, g2],
  //   Extend(p := u * v, Join(left, right, inner, single key)))) where the
  // join inputs are 2-d, single-attribute, dimension-tagged collections and
  // the group keys are the non-contracted dimensions. Such a pipeline *is*
  // matrix multiplication; rewrite it back into the intent node.
  Result<PlanPtr> TryRecognizeMatMul(const PlanPtr& select_node) {
    const ExprPtr& pred = select_node->As<SelectOp>().predicate;
    if (pred->kind() != ExprKind::kBinary || pred->binary_op() != BinaryOp::kNe) {
      return PlanPtr(nullptr);
    }
    const ExprPtr& pl = pred->child(0);
    const ExprPtr& pr = pred->child(1);
    if (pl->kind() != ExprKind::kColumnRef || pr->kind() != ExprKind::kLiteral ||
        !pr->literal().is_numeric() || pr->literal().AsDouble() != 0.0) {
      return PlanPtr(nullptr);
    }
    const std::string& sum_name = pl->column_name();

    const PlanPtr& agg_node = select_node->child(0);
    if (agg_node->kind() != OpKind::kAggregate) return PlanPtr(nullptr);
    const auto& agg = agg_node->As<AggregateOp>();
    if (agg.group_by.size() != 2 || agg.aggs.size() != 1 ||
        agg.aggs[0].func != AggFunc::kSum ||
        agg.aggs[0].output_name != sum_name || agg.aggs[0].input == nullptr ||
        agg.aggs[0].input->kind() != ExprKind::kColumnRef) {
      return PlanPtr(nullptr);
    }
    const std::string& prod_name = agg.aggs[0].input->column_name();

    const PlanPtr& ext_node = agg_node->child(0);
    if (ext_node->kind() != OpKind::kExtend) return PlanPtr(nullptr);
    const auto& defs = ext_node->As<ExtendOp>().defs;
    if (defs.size() != 1 || defs[0].first != prod_name) return PlanPtr(nullptr);
    const ExprPtr& mul = defs[0].second;
    if (mul->kind() != ExprKind::kBinary || mul->binary_op() != BinaryOp::kMul ||
        mul->child(0)->kind() != ExprKind::kColumnRef ||
        mul->child(1)->kind() != ExprKind::kColumnRef) {
      return PlanPtr(nullptr);
    }

    const PlanPtr& join_node = ext_node->child(0);
    if (join_node->kind() != OpKind::kJoin) return PlanPtr(nullptr);
    const auto& join = join_node->As<JoinOp>();
    if (join.type != JoinType::kInner || join.left_keys.size() != 1 ||
        join.residual != nullptr) {
      return PlanPtr(nullptr);
    }

    NEXUS_ASSIGN_OR_RETURN(SchemaPtr ls, SchemaOf(join_node->child(0)));
    NEXUS_ASSIGN_OR_RETURN(SchemaPtr rs, SchemaOf(join_node->child(1)));
    std::vector<int> ld = ls->DimensionIndices(), la = ls->AttributeIndices();
    std::vector<int> rd = rs->DimensionIndices(), ra = rs->AttributeIndices();
    if (ld.size() != 2 || la.size() != 1 || rd.size() != 2 || ra.size() != 1) {
      return PlanPtr(nullptr);
    }
    if (!IsNumeric(ls->field(la[0]).type) || !IsNumeric(rs->field(ra[0]).type)) {
      return PlanPtr(nullptr);
    }
    const std::string g1 = ls->field(ld[0]).name;       // output row dim
    const std::string contract = ls->field(ld[1]).name;  // contracted dim
    const std::string k2 = rs->field(rd[0]).name;
    const std::string g2 = rs->field(rd[1]).name;       // output col dim
    const std::string u = ls->field(la[0]).name;
    const std::string v = rs->field(ra[0]).name;
    if (join.left_keys[0] != contract || join.right_keys[0] != k2) {
      return PlanPtr(nullptr);
    }
    if (agg.group_by[0] != g1 || agg.group_by[1] != g2) return PlanPtr(nullptr);
    const std::string& m0 = mul->child(0)->column_name();
    const std::string& m1 = mul->child(1)->column_name();
    if (!((m0 == u && m1 == v) || (m0 == v && m1 == u))) return PlanPtr(nullptr);

    if (stats_ != nullptr) ++stats_->intents_recognized;
    // MatMul tags both output dims; the aggregate only kept the left tag, so
    // re-tag to the original shape.
    PlanPtr mm = Plan::MatMul(join_node->child(0), join_node->child(1), sum_name);
    return Plan::Rebox(mm, {g1}, 64);
  }

  Result<PlanPtr> RecognizePass(const PlanPtr& plan) {
    std::vector<PlanPtr> children;
    children.reserve(plan->children().size());
    for (const PlanPtr& c : plan->children()) {
      NEXUS_ASSIGN_OR_RETURN(PlanPtr nc, RecognizePass(c));
      children.push_back(std::move(nc));
    }
    PlanPtr node = plan->WithChildren(std::move(children));
    if (plan->kind() == OpKind::kIterate) {
      IterateOp op = plan->As<IterateOp>();
      NEXUS_ASSIGN_OR_RETURN(SchemaPtr init_schema, SchemaOf(node->child(0)));
      ctx_.loop_stack.push_back(init_schema);
      auto body = RecognizePass(op.body);
      Result<PlanPtr> measure = PlanPtr(nullptr);
      if (body.ok() && op.measure != nullptr) measure = RecognizePass(op.measure);
      ctx_.loop_stack.pop_back();
      NEXUS_ASSIGN_OR_RETURN(op.body, body);
      if (op.measure != nullptr) {
        NEXUS_ASSIGN_OR_RETURN(op.measure, measure);
      }
      return Plan::Iterate(node->child(0), std::move(op));
    }
    if (node->kind() == OpKind::kSelect) {
      NEXUS_ASSIGN_OR_RETURN(PlanPtr recognized, TryRecognizeMatMul(node));
      if (recognized != nullptr) return recognized;
    }
    return node;
  }

  // --- pass 4: column pruning -------------------------------------------------

  using Needed = std::optional<std::vector<std::string>>;  // nullopt == all

  static Needed Union2(const Needed& a, const std::vector<std::string>& extra) {
    if (!a.has_value()) return std::nullopt;
    std::vector<std::string> out = *a;
    for (const std::string& e : extra) {
      if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
    }
    return out;
  }

  Result<PlanPtr> Prune(const PlanPtr& plan, const Needed& needed) {
    switch (plan->kind()) {
      case OpKind::kScan:
      case OpKind::kValues:
      case OpKind::kLoopVar: {
        if (!needed.has_value()) return plan;
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, SchemaOf(plan));
        // Keep schema order; only narrow when strictly fewer columns.
        std::vector<std::string> cols;
        for (const Field& f : schema->fields()) {
          if (std::find(needed->begin(), needed->end(), f.name) != needed->end()) {
            cols.push_back(f.name);
          }
        }
        if (static_cast<int>(cols.size()) >= schema->num_fields() || cols.empty()) {
          return plan;
        }
        if (stats_ != nullptr) ++stats_->projects_inserted;
        return Plan::Project(plan, std::move(cols));
      }
      case OpKind::kSelect: {
        Needed child = Union2(needed, plan->As<SelectOp>().predicate->ColumnRefs());
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), child));
        return Plan::Select(c, plan->As<SelectOp>().predicate);
      }
      case OpKind::kProject: {
        // Narrow to the listed columns the parent needs, in list order; an
        // empty intersection keeps the list (the output must have a column).
        std::vector<std::string> cols = plan->As<ProjectOp>().columns;
        if (needed.has_value()) {
          std::vector<std::string> kept;
          for (const std::string& c : cols) {
            if (std::find(needed->begin(), needed->end(), c) != needed->end()) {
              kept.push_back(c);
            }
          }
          if (!kept.empty()) cols = std::move(kept);
        }
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), cols));
        return Plan::Project(c, std::move(cols));
      }
      case OpKind::kExtend: {
        Needed child = needed;
        if (child.has_value()) {
          // Drop def names, add every def's references (conservative).
          std::vector<std::string> base;
          for (const std::string& n : *child) {
            bool is_def = false;
            for (const auto& [name, e] : plan->As<ExtendOp>().defs) {
              if (name == n) is_def = true;
            }
            if (!is_def) base.push_back(n);
          }
          child = base;
          for (const auto& [name, e] : plan->As<ExtendOp>().defs) {
            child = Union2(child, e->ColumnRefs());
          }
        }
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), child));
        return Plan::Extend(c, plan->As<ExtendOp>().defs);
      }
      case OpKind::kJoin: {
        const auto& op = plan->As<JoinOp>();
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr ls, SchemaOf(plan->child(0)));
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr rs, SchemaOf(plan->child(1)));
        Needed ln = needed, rn = needed;
        if (needed.has_value()) {
          std::vector<std::string> l, r;
          for (const std::string& n : *needed) {
            if (ls->FindField(n) >= 0) l.push_back(n);
            if (rs->FindField(n) >= 0) r.push_back(n);
          }
          ln = l;
          rn = r;
          ln = Union2(ln, op.left_keys);
          rn = Union2(rn, op.right_keys);
          if (op.residual != nullptr) {
            for (const std::string& ref : op.residual->ColumnRefs()) {
              if (ls->FindField(ref) >= 0) ln = Union2(ln, {ref});
              if (rs->FindField(ref) >= 0) rn = Union2(rn, {ref});
            }
          }
          // Semi/anti joins expose the full left schema.
          if (op.type == JoinType::kSemi || op.type == JoinType::kAnti) {
            ln = std::nullopt;
          }
        }
        NEXUS_ASSIGN_OR_RETURN(PlanPtr l, Prune(plan->child(0), ln));
        NEXUS_ASSIGN_OR_RETURN(PlanPtr r, Prune(plan->child(1), rn));
        return Plan::Join(l, r, op.type, op.left_keys, op.right_keys, op.residual);
      }
      case OpKind::kAggregate: {
        const auto& op = plan->As<AggregateOp>();
        Needed child = op.group_by;
        for (const AggSpec& a : op.aggs) {
          if (a.input != nullptr) child = Union2(child, a.input->ColumnRefs());
        }
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), child));
        return Plan::Aggregate(c, op.group_by, op.aggs);
      }
      case OpKind::kSort: {
        Needed child = needed;
        for (const SortKey& k : plan->As<SortOp>().keys) {
          child = Union2(child, {k.column});
        }
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), child));
        return Plan::Sort(c, plan->As<SortOp>().keys);
      }
      case OpKind::kLimit: {
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), needed));
        return Plan::Limit(c, plan->As<LimitOp>().limit, plan->As<LimitOp>().offset);
      }
      case OpKind::kRename: {
        const auto& mapping = plan->As<RenameOp>().mapping;
        Needed child = needed;
        if (child.has_value()) {
          // Renames are simultaneous: map each name back at most once.
          std::vector<std::string> mapped;
          for (std::string n : *child) {
            for (const auto& [from, to] : mapping) {
              if (to == n) {
                n = from;
                break;
              }
            }
            mapped.push_back(n);
          }
          child = mapped;
        }
        NEXUS_ASSIGN_OR_RETURN(PlanPtr c, Prune(plan->child(0), child));
        // Drop the entries whose source column the child no longer has; an
        // unneeded target is all they would have produced.
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr cs, SchemaOf(c));
        std::vector<std::pair<std::string, std::string>> kept;
        for (const auto& entry : mapping) {
          if (cs->FindField(entry.first) >= 0) kept.push_back(entry);
        }
        if (kept.empty()) return c;
        return Plan::Rename(c, std::move(kept));
      }
      case OpKind::kIterate: {
        const auto& op = plan->As<IterateOp>();
        NEXUS_ASSIGN_OR_RETURN(PlanPtr init, Prune(plan->child(0), std::nullopt));
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr init_schema, SchemaOf(init));
        ctx_.loop_stack.push_back(init_schema);
        auto body = Prune(op.body, std::nullopt);
        Result<PlanPtr> measure = PlanPtr(nullptr);
        if (body.ok() && op.measure != nullptr) {
          measure = Prune(op.measure, std::nullopt);
        }
        ctx_.loop_stack.pop_back();
        IterateOp np = op;
        NEXUS_ASSIGN_OR_RETURN(np.body, body);
        if (op.measure != nullptr) {
          NEXUS_ASSIGN_OR_RETURN(np.measure, measure);
        }
        return Plan::Iterate(init, std::move(np));
      }
      default: {
        // Dimension-aware and intent operators need their full input.
        std::vector<PlanPtr> children;
        children.reserve(plan->children().size());
        for (const PlanPtr& c : plan->children()) {
          NEXUS_ASSIGN_OR_RETURN(PlanPtr nc, Prune(c, std::nullopt));
          children.push_back(std::move(nc));
        }
        return plan->WithChildren(std::move(children));
      }
    }
  }

  OptimizerOptions options_;
  OptimizerStats* stats_;
  InferContext ctx_;
};

}  // namespace

Result<PlanPtr> Optimize(const PlanPtr& plan, const Catalog& catalog,
                         const OptimizerOptions& options, OptimizerStats* stats) {
  Optimizer opt(catalog, options, stats);
  NEXUS_ASSIGN_OR_RETURN(PlanPtr p, opt.Run(plan));
  if (stats != nullptr) {
    auto est = EstimateCardinality(*p, catalog);
    stats->estimated_rows_root =
        est.ok() ? static_cast<int64_t>(std::llround(est.ValueOrDie())) : -1;
  }
  return p;
}

}  // namespace nexus
