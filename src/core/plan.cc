#include "core/plan.h"

#include <algorithm>

#include "common/str_util.h"

namespace nexus {

namespace {
// Name tables, indexed by enumerator.
constexpr const char* kOpKindNames[] = {
#define NEXUS_OP_NAME(kind, name, Payload, children) name,
    NEXUS_OPERATORS(NEXUS_OP_NAME)
#undef NEXUS_OP_NAME
};
constexpr int kOpKindChildCounts[] = {
#define NEXUS_OP_CHILDREN(kind, name, Payload, children) children,
    NEXUS_OPERATORS(NEXUS_OP_CHILDREN)
#undef NEXUS_OP_CHILDREN
};
constexpr const char* kJoinTypeNames[] = {"inner", "left", "semi", "anti"};
constexpr const char* kAggFuncNames[] = {"sum", "count", "min", "max", "avg"};
constexpr const char* kTransferModeNames[] = {"direct", "relay"};

template <class E, size_t N>
const char* NameOf(const char* const (&names)[N], E e) {
  size_t i = static_cast<size_t>(e);
  return i < N ? names[i] : "?";
}

template <class E, size_t N>
Result<E> FromName(const char* const (&names)[N], const std::string& name,
                   const char* what) {
  for (size_t i = 0; i < N; ++i) {
    if (name == names[i]) return static_cast<E>(i);
  }
  return Status::SerializationError(StrCat("unknown ", what, ": ", name));
}
}  // namespace

const char* OpKindName(OpKind kind) { return NameOf(kOpKindNames, kind); }
Result<OpKind> OpKindFromName(const std::string& name) {
  return FromName<OpKind>(kOpKindNames, name, "operator");
}

int OpKindChildCount(OpKind kind) {
  return kOpKindChildCounts[static_cast<size_t>(kind)];
}

std::vector<OpKind> AllOpKinds() {
  std::vector<OpKind> all;
  for (size_t i = 0; i < std::size(kOpKindNames); ++i) {
    all.push_back(static_cast<OpKind>(i));
  }
  return all;
}

OpPayload DefaultPayload(OpKind kind) {
  switch (kind) {
#define NEXUS_OP_DEFAULT(kind, name, Payload, children) \
  case OpKind::kind:                                    \
    return Payload{};
    NEXUS_OPERATORS(NEXUS_OP_DEFAULT)
#undef NEXUS_OP_DEFAULT
  }
  return ScanOp{};
}

const char* JoinTypeName(JoinType t) { return NameOf(kJoinTypeNames, t); }
Result<JoinType> JoinTypeFromName(const std::string& name) {
  return FromName<JoinType>(kJoinTypeNames, name, "join type");
}

const char* AggFuncName(AggFunc f) { return NameOf(kAggFuncNames, f); }
Result<AggFunc> AggFuncFromName(const std::string& name) {
  return FromName<AggFunc>(kAggFuncNames, name, "aggregate");
}

const char* TransferModeName(TransferMode m) {
  return NameOf(kTransferModeNames, m);
}
Result<TransferMode> TransferModeFromName(const std::string& name) {
  return FromName<TransferMode>(kTransferModeNames, name, "transfer mode");
}

PlanPtr Plan::Make(OpPayload payload, std::vector<PlanPtr> children) {
  struct Access : Plan {
    Access(OpKind k, OpPayload p, std::vector<PlanPtr> c)
        : Plan(k, std::move(p), std::move(c)) {}
  };
  // Plan's constructor is private; expose it via a local subclass so the
  // factories stay the single construction path.
  OpKind kind = static_cast<OpKind>(payload.index());
  return std::make_shared<const Access>(kind, std::move(payload),
                                        std::move(children));
}

PlanPtr Plan::Scan(std::string table) {
  return Make(ScanOp{std::move(table)}, {});
}
PlanPtr Plan::Values(Dataset data) {
  return Make(ValuesOp{std::move(data)}, {});
}
PlanPtr Plan::LoopVar(bool previous) {
  return Make(LoopVarOp{previous}, {});
}
PlanPtr Plan::Select(PlanPtr input, ExprPtr predicate) {
  return Make(SelectOp{std::move(predicate)},
              {std::move(input)});
}
PlanPtr Plan::Project(PlanPtr input, std::vector<std::string> columns) {
  return Make(ProjectOp{std::move(columns)},
              {std::move(input)});
}
PlanPtr Plan::Extend(PlanPtr input,
                     std::vector<std::pair<std::string, ExprPtr>> defs) {
  return Make(ExtendOp{std::move(defs)}, {std::move(input)});
}
PlanPtr Plan::Join(PlanPtr left, PlanPtr right, JoinType type,
                   std::vector<std::string> left_keys,
                   std::vector<std::string> right_keys, ExprPtr residual) {
  return Make(JoinOp{type, std::move(left_keys), std::move(right_keys),
                     std::move(residual)},
              {std::move(left), std::move(right)});
}
PlanPtr Plan::Aggregate(PlanPtr input, std::vector<std::string> group_by,
                        std::vector<AggSpec> aggs) {
  return Make(AggregateOp{std::move(group_by), std::move(aggs)},
              {std::move(input)});
}
PlanPtr Plan::Sort(PlanPtr input, std::vector<SortKey> keys) {
  return Make(SortOp{std::move(keys)}, {std::move(input)});
}
PlanPtr Plan::Limit(PlanPtr input, int64_t limit, int64_t offset) {
  return Make(LimitOp{limit, offset}, {std::move(input)});
}
PlanPtr Plan::Distinct(PlanPtr input) {
  return Make(DistinctOp{}, {std::move(input)});
}
PlanPtr Plan::Union(PlanPtr left, PlanPtr right) {
  return Make(UnionOp{}, {std::move(left), std::move(right)});
}
PlanPtr Plan::Rename(PlanPtr input,
                     std::vector<std::pair<std::string, std::string>> mapping) {
  return Make(RenameOp{std::move(mapping)},
              {std::move(input)});
}
PlanPtr Plan::Rebox(PlanPtr input, std::vector<std::string> dims,
                    int64_t chunk_size) {
  return Make(ReboxOp{std::move(dims), chunk_size},
              {std::move(input)});
}
PlanPtr Plan::Unbox(PlanPtr input) {
  return Make(UnboxOp{}, {std::move(input)});
}
PlanPtr Plan::Slice(PlanPtr input, std::vector<DimRange> ranges) {
  return Make(SliceOp{std::move(ranges)}, {std::move(input)});
}
PlanPtr Plan::Shift(PlanPtr input,
                    std::vector<std::pair<std::string, int64_t>> offsets) {
  return Make(ShiftOp{std::move(offsets)}, {std::move(input)});
}
PlanPtr Plan::Regrid(PlanPtr input,
                     std::vector<std::pair<std::string, int64_t>> factors,
                     AggFunc func) {
  return Make(RegridOp{std::move(factors), func},
              {std::move(input)});
}
PlanPtr Plan::Transpose(PlanPtr input, std::vector<std::string> dim_order) {
  return Make(TransposeOp{std::move(dim_order)},
              {std::move(input)});
}
PlanPtr Plan::Window(PlanPtr input,
                     std::vector<std::pair<std::string, int64_t>> radii,
                     AggFunc func) {
  return Make(WindowOp{std::move(radii), func},
              {std::move(input)});
}
PlanPtr Plan::ElemWise(PlanPtr left, PlanPtr right, BinaryOp op) {
  return Make(ElemWiseOpSpec{op},
              {std::move(left), std::move(right)});
}
PlanPtr Plan::MatMul(PlanPtr left, PlanPtr right, std::string result_attr) {
  return Make(MatMulOp{std::move(result_attr)},
              {std::move(left), std::move(right)});
}
PlanPtr Plan::PageRank(PlanPtr edges, PageRankOp spec) {
  return Make(std::move(spec), {std::move(edges)});
}
PlanPtr Plan::Iterate(PlanPtr init, IterateOp spec) {
  return Make(std::move(spec), {std::move(init)});
}
PlanPtr Plan::Exchange(PlanPtr input, std::string target_server,
                       TransferMode mode) {
  return Make(ExchangeOp{std::move(target_server), mode},
              {std::move(input)});
}

PlanPtr Plan::WithChildren(std::vector<PlanPtr> children) const {
  return Make(payload_, std::move(children));
}

std::string Plan::NodeLabel() const {
  switch (kind_) {
    case OpKind::kScan:
      return StrCat("scan[", As<ScanOp>().table, "]");
    case OpKind::kValues:
      return StrCat("values[", As<ValuesOp>().data.num_rows(), " rows]");
    case OpKind::kLoopVar:
      return As<LoopVarOp>().previous ? "loopvar[prev]" : "loopvar";
    case OpKind::kSelect:
      return StrCat("select[", As<SelectOp>().predicate->ToString(), "]");
    case OpKind::kProject: {
      return StrCat("project[", nexus::Join(As<ProjectOp>().columns, ", "), "]");
    }
    case OpKind::kExtend: {
      std::vector<std::string> parts;
      for (const auto& [name, expr] : As<ExtendOp>().defs) {
        parts.push_back(StrCat(name, " := ", expr->ToString()));
      }
      return StrCat("extend[", nexus::Join(parts, ", "), "]");
    }
    case OpKind::kJoin: {
      const auto& op = As<JoinOp>();
      std::vector<std::string> keys;
      // A key without a partner (lists of unequal length) prints as `?`.
      const size_t n = std::max(op.left_keys.size(), op.right_keys.size());
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(
            StrCat(i < op.left_keys.size() ? op.left_keys[i] : "?", "=",
                   i < op.right_keys.size() ? op.right_keys[i] : "?"));
      }
      std::string label =
          StrCat("join[", JoinTypeName(op.type), ", ", nexus::Join(keys, ", "));
      if (op.residual != nullptr) {
        label += StrCat(", if ", op.residual->ToString());
      }
      return label + "]";
    }
    case OpKind::kAggregate: {
      const auto& op = As<AggregateOp>();
      std::vector<std::string> parts;
      for (const AggSpec& a : op.aggs) {
        parts.push_back(StrCat(a.output_name, " := ", AggFuncName(a.func), "(",
                               a.input == nullptr ? "*" : a.input->ToString(),
                               ")"));
      }
      return StrCat("aggregate[by ", nexus::Join(op.group_by, ", "), "; ",
                    nexus::Join(parts, ", "), "]");
    }
    case OpKind::kSort: {
      std::vector<std::string> parts;
      for (const SortKey& k : As<SortOp>().keys) {
        parts.push_back(StrCat(k.column, k.ascending ? " asc" : " desc"));
      }
      return StrCat("sort[", nexus::Join(parts, ", "), "]");
    }
    case OpKind::kLimit: {
      const auto& op = As<LimitOp>();
      return op.offset == 0
                 ? StrCat("limit[", op.limit, "]")
                 : StrCat("limit[", op.limit, " offset ", op.offset, "]");
    }
    case OpKind::kDistinct:
      return "distinct";
    case OpKind::kUnion:
      return "union";
    case OpKind::kRename: {
      std::vector<std::string> parts;
      for (const auto& [from, to] : As<RenameOp>().mapping) {
        parts.push_back(StrCat(from, " -> ", to));
      }
      return StrCat("rename[", nexus::Join(parts, ", "), "]");
    }
    case OpKind::kRebox:
      return StrCat("rebox[", nexus::Join(As<ReboxOp>().dims, ", "), " chunk ",
                    As<ReboxOp>().chunk_size, "]");
    case OpKind::kUnbox:
      return "unbox";
    case OpKind::kSlice: {
      std::vector<std::string> parts;
      for (const DimRange& r : As<SliceOp>().ranges) {
        parts.push_back(StrCat(r.dim, " in [", r.lo, ", ", r.hi, ")"));
      }
      return StrCat("slice[", nexus::Join(parts, ", "), "]");
    }
    case OpKind::kShift: {
      std::vector<std::string> parts;
      for (const auto& [dim, delta] : As<ShiftOp>().offsets) {
        parts.push_back(StrCat(dim, delta >= 0 ? "+" : "", delta));
      }
      return StrCat("shift[", nexus::Join(parts, ", "), "]");
    }
    case OpKind::kRegrid: {
      const auto& op = As<RegridOp>();
      std::vector<std::string> parts;
      for (const auto& [dim, f] : op.factors) parts.push_back(StrCat(dim, "/", f));
      return StrCat("regrid[", nexus::Join(parts, ", "), " ", AggFuncName(op.func), "]");
    }
    case OpKind::kTranspose:
      return StrCat("transpose[", nexus::Join(As<TransposeOp>().dim_order, ", "), "]");
    case OpKind::kWindow: {
      const auto& op = As<WindowOp>();
      std::vector<std::string> parts;
      for (const auto& [dim, r] : op.radii) parts.push_back(StrCat(dim, "±", r));
      return StrCat("window[", nexus::Join(parts, ", "), " ", AggFuncName(op.func), "]");
    }
    case OpKind::kElemWise:
      return StrCat("elemwise[", BinaryOpName(As<ElemWiseOpSpec>().op), "]");
    case OpKind::kMatMul:
      return StrCat("matmul[-> ", As<MatMulOp>().result_attr, "]");
    case OpKind::kPageRank: {
      const auto& op = As<PageRankOp>();
      return StrCat("pagerank[", op.src_col, " -> ", op.dst_col, ", d=",
                    FormatDouble(op.damping), ", iters<=", op.max_iters, "]");
    }
    case OpKind::kIterate: {
      const auto& op = As<IterateOp>();
      return StrCat("iterate[<=", op.max_iters, " iters, eps=",
                    FormatDouble(op.epsilon), "]");
    }
    case OpKind::kExchange: {
      const auto& op = As<ExchangeOp>();
      return StrCat("exchange[to ", op.target_server, ", ",
                    TransferModeName(op.mode), "]");
    }
  }
  return "?";
}

namespace {
void PrintTree(const Plan& plan, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(plan.NodeLabel());
  out->push_back('\n');
  for (const PlanPtr& c : plan.children()) PrintTree(*c, indent + 1, out);
  if (plan.kind() == OpKind::kIterate) {
    const auto& op = plan.As<IterateOp>();
    out->append(static_cast<size_t>(indent + 1) * 2, ' ');
    out->append("body:\n");
    PrintTree(*op.body, indent + 2, out);
    if (op.measure != nullptr) {
      out->append(static_cast<size_t>(indent + 1) * 2, ' ');
      out->append("measure:\n");
      PrintTree(*op.measure, indent + 2, out);
    }
  }
}
}  // namespace

std::string Plan::ToString() const {
  std::string out;
  PrintTree(*this, 0, &out);
  return out;
}

namespace {
// Field comparison, one overload per field shape (the field tags of
// core/plan.h do not change how a field compares).
bool SameField(const ExprPtr& a, const ExprPtr& b);
bool SameField(const PlanPtr& a, const PlanPtr& b);
bool SameField(const Dataset& a, const Dataset& b);
template <class A, class B>
bool SameField(const std::pair<A, B>& a, const std::pair<A, B>& b);
template <class T>
bool SameField(const std::vector<T>& a, const std::vector<T>& b);
template <class T>
bool SameField(const T& a, const T& b);

struct FieldsEqual {
  bool equal = true;
  template <class T>
  void operator()(const T& a, const T& b) {
    equal = equal && SameField(a, b);
  }
  template <class Tag, class T>
  void operator()(Tag, const T& a, const T& b) {
    equal = equal && SameField(a, b);
  }
};

bool SameField(const ExprPtr& a, const ExprPtr& b) {
  return a == nullptr || b == nullptr ? a == b : a->Equals(*b);
}
bool SameField(const PlanPtr& a, const PlanPtr& b) {
  return a == nullptr || b == nullptr ? a == b : a->Equals(*b);
}
bool SameField(const Dataset& a, const Dataset& b) { return a.LogicallyEquals(b); }
template <class A, class B>
bool SameField(const std::pair<A, B>& a, const std::pair<A, B>& b) {
  return SameField(a.first, b.first) && SameField(a.second, b.second);
}
template <class T>
bool SameField(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameField(a[i], b[i])) return false;
  }
  return true;
}
template <class T>
bool SameField(const T& a, const T& b) {
  if constexpr (requires(FieldsEqual& eq) { T::Fields(eq, a, b); }) {
    FieldsEqual eq;
    T::Fields(eq, a, b);
    return eq.equal;
  } else {
    return a == b;
  }
}
}  // namespace

bool Plan::Equals(const Plan& other) const {
  if (kind_ != other.kind_ || children_.size() != other.children_.size() ||
      !std::visit(
          [&](const auto& op) {
            return SameField(op, std::get<std::decay_t<decltype(op)>>(other.payload_));
          },
          payload_)) {
    return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

int64_t Plan::TreeSize() const {
  int64_t n = 1;
  for (const PlanPtr& c : children_) n += c->TreeSize();
  if (kind_ == OpKind::kIterate) {
    const auto& op = As<IterateOp>();
    n += op.body->TreeSize();
    if (op.measure != nullptr) n += op.measure->TreeSize();
  }
  return n;
}

}  // namespace nexus
