// The Big Data Algebra: the paper's "algebraic intermediate form" that acts
// as the nexus between client languages and back-end providers.
//
// A Plan is an immutable expression tree over collections in the fused
// tabular/array model. It spans:
//   - standard relational operators (select, project, join, aggregate, …),
//   - dimension-aware array operators (slice, regrid, transpose, window, …),
//   - *intent-carrying* operators (MatMul, PageRank) whose relational
//     expansions exist (core/expansion.h) but whose identity is preserved so
//     a provider with a native implementation can claim them
//     (desideratum 3, Intent Preservation),
//   - Iterate, the control-iteration operator ("repeated execution of an
//     expression until some convergence criterion is met"),
//   - Exchange, the physical operator the federated planner inserts at
//     server boundaries (desideratum 4, Server Interoperation).
//
// Operators are declared once: a row in NEXUS_OPERATORS (kind, name,
// payload, child count) and a payload struct whose NEXUS_FIELDS lists its
// fields in wire order. Equality (Plan::Equals), the s-expression writer
// and the plan parser (core/serialize.cc) walk those field lists, so none
// of them names an operator.
#ifndef NEXUS_CORE_PLAN_H_
#define NEXUS_CORE_PLAN_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "types/dataset.h"

namespace nexus {

class Plan;
using PlanPtr = std::shared_ptr<const Plan>;

/// The operator table: one row per operator of the algebra,
///   X(OpKind enumerator, wire and EXPLAIN name, payload type, child count).
/// It is the only list of operators. It generates OpKind, OpPayload (whose
/// alternative i is the payload of OpKind i), OpKindName, OpKindFromName,
/// AllOpKinds, OpKindChildCount and DefaultPayload.
#define NEXUS_OPERATORS(X)                                                   \
  /* Leaves. */                                                              \
  X(kScan, "scan", ScanOp, 0)       /* named collection from the catalog */ \
  X(kValues, "values", ValuesOp, 0) /* inline literal collection */         \
  X(kLoopVar, "loopvar", LoopVarOp, 0) /* an Iterate's loop variable */     \
  /* Relational core. */                                                     \
  X(kSelect, "select", SelectOp, 1)                                          \
  X(kProject, "project", ProjectOp, 1)                                       \
  X(kExtend, "extend", ExtendOp, 1)                                          \
  X(kJoin, "join", JoinOp, 2)                                                \
  X(kAggregate, "aggregate", AggregateOp, 1)                                 \
  X(kSort, "sort", SortOp, 1)                                                \
  X(kLimit, "limit", LimitOp, 1)                                             \
  X(kDistinct, "distinct", DistinctOp, 1)                                    \
  X(kUnion, "union", UnionOp, 2)                                             \
  X(kRename, "rename", RenameOp, 1)                                          \
  /* Model fusion: tag columns as dimensions (table -> array view), and */   \
  /* clear the tags (array -> table view). */                                \
  X(kRebox, "rebox", ReboxOp, 1)                                             \
  X(kUnbox, "unbox", UnboxOp, 1)                                             \
  /* Dimension-aware array operators. */                                     \
  X(kSlice, "slice", SliceOp, 1)                                             \
  X(kShift, "shift", ShiftOp, 1)                                             \
  X(kRegrid, "regrid", RegridOp, 1)                                          \
  X(kTranspose, "transpose", TransposeOp, 1)                                 \
  X(kWindow, "window", WindowOp, 1)                                          \
  X(kElemWise, "elemwise", ElemWiseOpSpec, 2)                                \
  /* Intent-carrying analytics operators. */                                 \
  X(kMatMul, "matmul", MatMulOp, 2)                                          \
  X(kPageRank, "pagerank", PageRankOp, 1)                                    \
  /* Control iteration. */                                                   \
  X(kIterate, "iterate", IterateOp, 1)                                       \
  /* Physical (planner-inserted). */                                         \
  X(kExchange, "exchange", ExchangeOp, 1)

/// Every operator of the algebra.
enum class OpKind : int {
#define NEXUS_OP_ENUM(kind, name, Payload, children) kind,
  NEXUS_OPERATORS(NEXUS_OP_ENUM)
#undef NEXUS_OP_ENUM
};

const char* OpKindName(OpKind kind);
Result<OpKind> OpKindFromName(const std::string& name);

/// All operator kinds, for coverage enumeration.
std::vector<OpKind> AllOpKinds();

/// Number of child plans every node of `kind` has.
int OpKindChildCount(OpKind kind);

enum class JoinType : int { kInner, kLeft, kSemi, kAnti };
const char* JoinTypeName(JoinType t);
Result<JoinType> JoinTypeFromName(const std::string& name);

enum class AggFunc : int { kSum, kCount, kMin, kMax, kAvg };
const char* AggFuncName(AggFunc f);
Result<AggFunc> AggFuncFromName(const std::string& name);

/// How an Exchange moves its payload (desideratum 4): directly between the
/// producing and consuming servers, or relayed through the client tier.
enum class TransferMode : int { kDirect, kRelay };
const char* TransferModeName(TransferMode m);
Result<TransferMode> TransferModeFromName(const std::string& name);

// ---------------------------------------------------------------------------
// Field lists.
//
// Each payload lists its fields once, in wire order, with NEXUS_FIELDS. That
// declares `Fields(v, s...)`, which calls the visitor `v` once per field
// with that field of each payload in `s...`: one payload to write or read
// it (core/serialize.cc), two to compare them (Plan::Equals). A field's
// shape follows from its type -- std::string, int64_t, double, an enum
// (written as its name), ExprPtr, PlanPtr, Dataset -- unless one of the
// tags below comes first.
// ---------------------------------------------------------------------------

#define NEXUS_FIELDS(...)                                              \
  template <class V, class... S>                                       \
  static void Fields([[maybe_unused]] V& v, [[maybe_unused]] S&... s) { \
    __VA_ARGS__;                                                       \
  }

namespace field {

/// An ExprPtr or PlanPtr that may be null, written as the symbol `none`.
struct Opt {};

/// A bool written as one of two symbols.
struct Flag {
  const char* if_false;
  const char* if_true;
};

/// A sequence (a vector or a Zip). Its items follow inline as the rest of
/// the node's items or, given a `head`, inside one `(head item...)` list.
/// Compound items (pairs, zipped pairs, structs with Fields) are each
/// written as a list of their parts, headed by `tag` when one is given.
struct Seq {
  const char* head = nullptr;
  const char* tag = nullptr;
};

/// Two equal-length vectors read as one sequence of (left, right) pairs.
/// Vectors of unequal length pair up to the shorter one's end; the writer
/// then adds the longer one's unpaired items, which the reader refuses, so
/// such a payload never ships.
template <class Vec>
struct Zip {
  Vec& left;
  Vec& right;
  size_t size() const { return std::min(left.size(), right.size()); }
  std::span<const typename std::remove_const_t<Vec>::value_type> Unpaired()
      const {
    const auto& longer = left.size() > right.size() ? left : right;
    return std::span(longer).subspan(size());
  }
  auto operator[](size_t i) const { return std::tie(left[i], right[i]); }
  auto emplace_back() const {
    return std::tie(left.emplace_back(), right.emplace_back());
  }
  friend bool operator==(const Zip& a, const Zip& b) {
    return a.left == b.left && a.right == b.right;
  }
};
template <class Vec>
Zip(Vec&, Vec&) -> Zip<Vec>;

}  // namespace field

// ---------------------------------------------------------------------------
// Per-operator payloads.
// ---------------------------------------------------------------------------

struct ScanOp {
  std::string table;
  NEXUS_FIELDS(v(s.table...))
};
struct ValuesOp {
  Dataset data;
  NEXUS_FIELDS(v(s.data...))
};
struct LoopVarOp {
  bool previous = false;  ///< refer to the pre-iteration value (measure only)
  NEXUS_FIELDS(v(field::Flag{"curr", "prev"}, s.previous...))
};
struct SelectOp {
  ExprPtr predicate;
  NEXUS_FIELDS(v(s.predicate...))
};
struct ProjectOp {
  std::vector<std::string> columns;
  NEXUS_FIELDS(v(field::Seq{}, s.columns...))
};
struct ExtendOp {
  std::vector<std::pair<std::string, ExprPtr>> defs;
  NEXUS_FIELDS(v(field::Seq{.tag = "def"}, s.defs...))
};
struct JoinOp {
  JoinType type = JoinType::kInner;
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  ExprPtr residual;  ///< optional extra predicate over the joined row; may be null
  NEXUS_FIELDS(v(s.type...),
               v(field::Seq{.head = "keys"},
                 field::Zip{s.left_keys, s.right_keys}...),
               v(field::Opt{}, s.residual...))
};
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr input;  ///< null means count(*) (only valid for kCount)
  std::string output_name;
  NEXUS_FIELDS(v(s.func...), v(s.output_name...), v(field::Opt{}, s.input...))
};
struct AggregateOp {
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
  NEXUS_FIELDS(v(field::Seq{.head = "by"}, s.group_by...),
               v(field::Seq{.tag = "agg"}, s.aggs...))
};
struct SortKey {
  std::string column;
  bool ascending = true;
  NEXUS_FIELDS(v(s.column...), v(field::Flag{"desc", "asc"}, s.ascending...))
};
struct SortOp {
  std::vector<SortKey> keys;
  NEXUS_FIELDS(v(field::Seq{.tag = "key"}, s.keys...))
};
struct LimitOp {
  int64_t limit = 0;
  int64_t offset = 0;
  NEXUS_FIELDS(v(s.limit...), v(s.offset...))
};
struct DistinctOp {
  NEXUS_FIELDS()
};
struct UnionOp {
  NEXUS_FIELDS()
};
struct RenameOp {
  std::vector<std::pair<std::string, std::string>> mapping;  ///< old → new
  NEXUS_FIELDS(v(field::Seq{.tag = "map"}, s.mapping...))
};
struct ReboxOp {
  std::vector<std::string> dims;  ///< exactly these become the dimensions
  int64_t chunk_size = 64;        ///< chunking hint for array providers
  NEXUS_FIELDS(v(s.chunk_size...), v(field::Seq{}, s.dims...))
};
struct UnboxOp {
  NEXUS_FIELDS()
};
/// Half-open coordinate range on one dimension.
struct DimRange {
  std::string dim;
  int64_t lo = 0;
  int64_t hi = 0;
  NEXUS_FIELDS(v(s.dim...), v(s.lo...), v(s.hi...))
};
struct SliceOp {
  std::vector<DimRange> ranges;
  NEXUS_FIELDS(v(field::Seq{.tag = "range"}, s.ranges...))
};
struct ShiftOp {
  std::vector<std::pair<std::string, int64_t>> offsets;  ///< dim → delta
  NEXUS_FIELDS(v(field::Seq{.tag = "off"}, s.offsets...))
};
struct RegridOp {
  std::vector<std::pair<std::string, int64_t>> factors;  ///< dim → block size
  AggFunc func = AggFunc::kAvg;  ///< applied to every numeric attribute
  NEXUS_FIELDS(v(s.func...), v(field::Seq{.tag = "factor"}, s.factors...))
};
struct TransposeOp {
  std::vector<std::string> dim_order;
  NEXUS_FIELDS(v(field::Seq{}, s.dim_order...))
};
struct WindowOp {
  std::vector<std::pair<std::string, int64_t>> radii;  ///< dim → radius
  AggFunc func = AggFunc::kAvg;
  NEXUS_FIELDS(v(s.func...), v(field::Seq{.tag = "radius"}, s.radii...))
};
struct ElemWiseOpSpec {
  BinaryOp op = BinaryOp::kAdd;  ///< one of + - * /
  NEXUS_FIELDS(v(s.op...))
};
struct MatMulOp {
  std::string result_attr = "value";
  NEXUS_FIELDS(v(s.result_attr...))
};
struct PageRankOp {
  std::string src_col = "src";
  std::string dst_col = "dst";
  double damping = 0.85;
  int64_t max_iters = 50;
  double epsilon = 1e-9;  ///< L1 convergence threshold
  NEXUS_FIELDS(v(s.src_col...), v(s.dst_col...), v(s.damping...),
               v(s.max_iters...), v(s.epsilon...))
};
struct IterateOp {
  PlanPtr body;     ///< references LoopVar(current); same schema as init
  PlanPtr measure;  ///< optional: 1×1 float64 over LoopVar(prev/current)
  double epsilon = 0.0;
  int64_t max_iters = 1;
  NEXUS_FIELDS(v(s.body...), v(field::Opt{}, s.measure...), v(s.epsilon...),
               v(s.max_iters...))
};
struct ExchangeOp {
  std::string target_server;
  TransferMode mode = TransferMode::kDirect;
  NEXUS_FIELDS(v(s.target_server...), v(s.mode...))
};

namespace internal {
// The leading type absorbs the comma that starts the table's payload list.
template <class Unused, class... Payloads>
using PayloadVariant = std::variant<Payloads...>;
}  // namespace internal

#define NEXUS_OP_PAYLOAD(kind, name, Payload, children) , Payload
using OpPayload =
    internal::PayloadVariant<void NEXUS_OPERATORS(NEXUS_OP_PAYLOAD)>;
#undef NEXUS_OP_PAYLOAD

/// The payload of `kind` with every field at its default.
OpPayload DefaultPayload(OpKind kind);

// ---------------------------------------------------------------------------
// Plan node.
// ---------------------------------------------------------------------------

/// Immutable algebra node: a kind, typed payload, and child plans.
class Plan {
 public:
  // Factories — the only way to build nodes. Structural invariants beyond
  // child counts are enforced by schema inference (core/schema_inference.h).
  /// The generic factory: the payload's alternative names the kind, and
  /// `children` must hold OpKindChildCount(kind) plans.
  static PlanPtr Make(OpPayload payload, std::vector<PlanPtr> children);
  static PlanPtr Scan(std::string table);
  static PlanPtr Values(Dataset data);
  static PlanPtr LoopVar(bool previous = false);
  static PlanPtr Select(PlanPtr input, ExprPtr predicate);
  static PlanPtr Project(PlanPtr input, std::vector<std::string> columns);
  static PlanPtr Extend(PlanPtr input,
                        std::vector<std::pair<std::string, ExprPtr>> defs);
  static PlanPtr Join(PlanPtr left, PlanPtr right, JoinType type,
                      std::vector<std::string> left_keys,
                      std::vector<std::string> right_keys,
                      ExprPtr residual = nullptr);
  static PlanPtr Aggregate(PlanPtr input, std::vector<std::string> group_by,
                           std::vector<AggSpec> aggs);
  static PlanPtr Sort(PlanPtr input, std::vector<SortKey> keys);
  static PlanPtr Limit(PlanPtr input, int64_t limit, int64_t offset = 0);
  static PlanPtr Distinct(PlanPtr input);
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr Rename(PlanPtr input,
                        std::vector<std::pair<std::string, std::string>> mapping);
  static PlanPtr Rebox(PlanPtr input, std::vector<std::string> dims,
                       int64_t chunk_size = 64);
  static PlanPtr Unbox(PlanPtr input);
  static PlanPtr Slice(PlanPtr input, std::vector<DimRange> ranges);
  static PlanPtr Shift(PlanPtr input,
                       std::vector<std::pair<std::string, int64_t>> offsets);
  static PlanPtr Regrid(PlanPtr input,
                        std::vector<std::pair<std::string, int64_t>> factors,
                        AggFunc func);
  static PlanPtr Transpose(PlanPtr input, std::vector<std::string> dim_order);
  static PlanPtr Window(PlanPtr input,
                        std::vector<std::pair<std::string, int64_t>> radii,
                        AggFunc func);
  static PlanPtr ElemWise(PlanPtr left, PlanPtr right, BinaryOp op);
  static PlanPtr MatMul(PlanPtr left, PlanPtr right,
                        std::string result_attr = "value");
  static PlanPtr PageRank(PlanPtr edges, PageRankOp spec);
  static PlanPtr Iterate(PlanPtr init, IterateOp spec);
  static PlanPtr Exchange(PlanPtr input, std::string target_server,
                          TransferMode mode);

  OpKind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  int num_children() const { return static_cast<int>(children_.size()); }
  const PlanPtr& child(int i) const { return children_[static_cast<size_t>(i)]; }

  /// Typed payload access; precondition: matching kind.
  template <typename T>
  const T& As() const {
    return std::get<T>(payload_);
  }
  const OpPayload& payload() const { return payload_; }

  /// Rebuilds this node with different children (payload preserved).
  PlanPtr WithChildren(std::vector<PlanPtr> children) const;

  /// Multi-line indented tree rendering.
  std::string ToString() const;
  /// Single-line rendering of just this node ("join[inner, a=b]").
  std::string NodeLabel() const;

  /// Structural equality over the whole tree (including nested Iterate
  /// bodies): every child and every payload field. Values data compares
  /// logically (Dataset::LogicallyEquals).
  bool Equals(const Plan& other) const;

  /// Total node count including nested Iterate body/measure plans.
  int64_t TreeSize() const;

 protected:
  Plan(OpKind kind, OpPayload payload, std::vector<PlanPtr> children)
      : kind_(kind), payload_(std::move(payload)), children_(std::move(children)) {}

 private:
  OpKind kind_;
  OpPayload payload_;
  std::vector<PlanPtr> children_;
};

/// Deepest nesting the text parsers accept: s-expression lists on the wire
/// (ParsePlan / ParseExpr / ParseDataset) and BDL expression nesting
/// (ParseBdl / ParseBdlExpr). Deeper input is refused with the parser's
/// error Status instead of overflowing the stack. Measured: the deepest
/// plan any test, bench, example or nexbench workload serializes nests 16
/// lists, and their deepest BDL expression 2 levels.
inline constexpr int kMaxParseDepth = 256;

}  // namespace nexus

#endif  // NEXUS_CORE_PLAN_H_
