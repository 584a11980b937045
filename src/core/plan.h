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
#ifndef NEXUS_CORE_PLAN_H_
#define NEXUS_CORE_PLAN_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "types/dataset.h"

namespace nexus {

class Plan;
using PlanPtr = std::shared_ptr<const Plan>;

/// Every operator of the algebra.
enum class OpKind : int {
  // Leaves.
  kScan,     ///< named collection from the catalog
  kValues,   ///< inline literal collection
  kLoopVar,  ///< the loop variable inside an Iterate body/measure
  // Relational core.
  kSelect,
  kProject,
  kExtend,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
  kUnion,
  kRename,
  // Model fusion.
  kRebox,  ///< tag columns as dimensions (table → array view)
  kUnbox,  ///< clear dimension tags (array → table view)
  // Dimension-aware array operators.
  kSlice,
  kShift,
  kRegrid,
  kTranspose,
  kWindow,
  kElemWise,
  // Intent-carrying analytics operators.
  kMatMul,
  kPageRank,
  // Control iteration.
  kIterate,
  // Physical (planner-inserted).
  kExchange,
};

const char* OpKindName(OpKind kind);
Result<OpKind> OpKindFromName(const std::string& name);

/// All operator kinds, for coverage enumeration.
std::vector<OpKind> AllOpKinds();

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

// ---------------------------------------------------------------------------
// Per-operator payloads.
// ---------------------------------------------------------------------------

struct ScanOp {
  std::string table;
};
struct ValuesOp {
  Dataset data;
};
struct LoopVarOp {
  bool previous = false;  ///< refer to the pre-iteration value (measure only)
};
struct SelectOp {
  ExprPtr predicate;
};
struct ProjectOp {
  std::vector<std::string> columns;
};
struct ExtendOp {
  std::vector<std::pair<std::string, ExprPtr>> defs;
};
struct JoinOp {
  JoinType type = JoinType::kInner;
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  ExprPtr residual;  ///< optional extra predicate over the joined row; may be null
};
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr input;  ///< null means count(*) (only valid for kCount)
  std::string output_name;
};
struct AggregateOp {
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
};
struct SortKey {
  std::string column;
  bool ascending = true;
};
struct SortOp {
  std::vector<SortKey> keys;
};
struct LimitOp {
  int64_t limit = 0;
  int64_t offset = 0;
};
struct DistinctOp {};
struct UnionOp {};
struct RenameOp {
  std::vector<std::pair<std::string, std::string>> mapping;  ///< old → new
};
struct ReboxOp {
  std::vector<std::string> dims;  ///< exactly these become the dimensions
  int64_t chunk_size = 64;        ///< chunking hint for array providers
};
struct UnboxOp {};
/// Half-open coordinate range on one dimension.
struct DimRange {
  std::string dim;
  int64_t lo = 0;
  int64_t hi = 0;
};
struct SliceOp {
  std::vector<DimRange> ranges;
};
struct ShiftOp {
  std::vector<std::pair<std::string, int64_t>> offsets;  ///< dim → delta
};
struct RegridOp {
  std::vector<std::pair<std::string, int64_t>> factors;  ///< dim → block size
  AggFunc func = AggFunc::kAvg;  ///< applied to every numeric attribute
};
struct TransposeOp {
  std::vector<std::string> dim_order;
};
struct WindowOp {
  std::vector<std::pair<std::string, int64_t>> radii;  ///< dim → radius
  AggFunc func = AggFunc::kAvg;
};
struct ElemWiseOpSpec {
  BinaryOp op = BinaryOp::kAdd;  ///< one of + - * /
};
struct MatMulOp {
  std::string result_attr = "value";
};
struct PageRankOp {
  std::string src_col = "src";
  std::string dst_col = "dst";
  double damping = 0.85;
  int64_t max_iters = 50;
  double epsilon = 1e-9;  ///< L1 convergence threshold
};
struct IterateOp {
  PlanPtr body;     ///< references LoopVar(current); same schema as init
  PlanPtr measure;  ///< optional: 1×1 float64 over LoopVar(prev/current)
  double epsilon = 0.0;
  int64_t max_iters = 1;
};
struct ExchangeOp {
  std::string target_server;
  TransferMode mode = TransferMode::kDirect;
};

using OpPayload =
    std::variant<ScanOp, ValuesOp, LoopVarOp, SelectOp, ProjectOp, ExtendOp,
                 JoinOp, AggregateOp, SortOp, LimitOp, DistinctOp, UnionOp,
                 RenameOp, ReboxOp, UnboxOp, SliceOp, ShiftOp, RegridOp,
                 TransposeOp, WindowOp, ElemWiseOpSpec, MatMulOp, PageRankOp,
                 IterateOp, ExchangeOp>;

// ---------------------------------------------------------------------------
// Plan node.
// ---------------------------------------------------------------------------

/// Immutable algebra node: a kind, typed payload, and child plans.
class Plan {
 public:
  // Factories — the only way to build nodes. Structural invariants beyond
  // child counts are enforced by schema inference (core/schema_inference.h).
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

  /// Structural equality / hash over the whole tree (including nested
  /// Iterate bodies). Used by the optimizer's memo and by tests.
  bool Equals(const Plan& other) const;
  uint64_t Hash() const;

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
