// Provider: the paper's server-side abstraction ("LINQ Providers accept SQO
// expressions as input"). A provider owns a storage catalog, advertises
// which algebra operators it can execute natively (its capability set), and
// accepts whole expression trees for execution.
//
// Five providers ship with the framework:
//   reference   — interprets everything (the translatability backstop)
//   relstore    — columnar relational engine; claims intent ops via expansion
//   arraydb     — chunked array engine (dimension-aware operators)
//   linalg      — dense/sparse linear algebra (MatMul, ElemWise, Transpose)
//   graphd      — graph analytics (PageRank)
//
// The four engines are EngineProviders: each Execute runs in a fresh
// ExecFrame, which owns everything that does not depend on the engine —
// the catalog reference, the Iterate loop stack, the per-operator span, the
// Scan/Values/LoopVar/Exchange/Iterate cases, the ⊕-fold helper and the
// refusal of unclaimed kinds. An engine supplies only ExecOp: its own
// operators. The reference provider keeps its own interpreter, the oracle
// the engines are tested against.
#ifndef NEXUS_PROVIDER_PROVIDER_H_
#define NEXUS_PROVIDER_PROVIDER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/plan.h"
#include "exec/reference_executor.h"

namespace nexus {

/// Abstract back-end service.
class Provider {
 public:
  /// Parsed + optimized plans kept per provider, keyed by the fingerprint of
  /// the shipped wire. Small and bounded: the cache exists for repeated
  /// shipments (Iterate rounds, re-executed queries), not as a plan store.
  static constexpr size_t kPlanCacheCapacity = 64;

  /// Sticky envelope bindings kept per provider so delta bindings
  /// (%NXB1-DELTA, see core/serialize.h) have a base to extend: the last
  /// full table shipped under each binding name, plus its fingerprint chain.
  static constexpr size_t kBindingCacheCapacity = 16;

  virtual ~Provider() = default;

  /// Stable identifier ("relstore", "arraydb", ...).
  virtual std::string name() const = 0;

  /// True when this provider can execute the operator kind natively (or via
  /// an internal translation it owns, e.g. relstore expanding MatMul).
  virtual bool Claims(OpKind kind) const = 0;

  /// True when every node of the tree (including Iterate bodies) is claimed.
  bool ClaimsTree(const Plan& plan) const;

  /// Executes a whole plan tree against this provider's catalog. All node
  /// kinds must be claimed; otherwise returns Unsupported.
  virtual Result<Dataset> Execute(const Plan& plan) = 0;

  /// Executes a serialized expression tree — the form plans arrive in over
  /// the wire ("Providers accept SQO expressions as input"). Deserialization
  /// happens here, on the provider side of the link. The wire may carry a
  /// plan-cache envelope (%NXB1-PLAN / %NXB1-EXEC, see core/serialize.h):
  /// %NXB1-PLAN caches the parsed plan under its fingerprint, %NXB1-EXEC
  /// executes a previously cached plan — or returns NotFound (containing
  /// kPlanCacheMissMarker) when the fingerprint was evicted, telling the
  /// coordinator to re-ship the full plan. Envelope bindings are registered
  /// in the catalog for the duration of the execution.
  Result<Dataset> ExecuteWire(const std::string& wire);

  /// True when this provider accepts NXB1 binary payloads. Legacy peers
  /// return false and the transport negotiates their links down to text.
  virtual bool AcceptsBinaryWire() const { return true; }

  /// Local storage (Scan resolves here; the federation layer registers
  /// shipped intermediates here too).
  InMemoryCatalog* catalog() { return &catalog_; }
  const InMemoryCatalog& catalog() const { return catalog_; }

 protected:
  InMemoryCatalog catalog_;

 private:
  Result<Dataset> ExecuteWireBody(std::string_view body);
  Result<Dataset> ExecuteBound(
      const Plan& plan,
      const std::vector<std::pair<std::string_view, std::string_view>>&
          bindings);
  PlanPtr LookupCachedPlan(uint64_t fingerprint);
  void CachePlan(uint64_t fingerprint, PlanPtr plan);

  /// Resolves one envelope binding value to a dataset: a delta binding wire
  /// is appended onto its sticky base (NotFound + kDeltaBindingMissMarker
  /// when the base is absent or the chain mismatches), a full value is
  /// parsed directly and, when it is a table, becomes the new sticky base
  /// for its name.
  Result<Dataset> ResolveBinding(const std::string& name,
                                 std::string_view wire);
  void CacheBinding(const std::string& name, TablePtr table,
                    uint64_t chain_fp);

  std::mutex cache_mu_;
  std::map<uint64_t, PlanPtr> plan_cache_;
  std::deque<uint64_t> plan_cache_order_;  // insertion order, for eviction
  struct BindingEntry {
    TablePtr table;
    uint64_t chain_fp = 0;
  };
  std::map<std::string, BindingEntry> binding_cache_;
  std::deque<std::string> binding_cache_order_;
};

using ProviderPtr = std::shared_ptr<Provider>;

class ExecFrame;

/// A provider backed by a native engine. Execute runs the plan in a fresh
/// ExecFrame, so concurrent Executes on one server never share state; the
/// engine itself only supplies ExecOp.
class EngineProvider : public Provider {
 public:
  Result<Dataset> Execute(const Plan& plan) override;

 protected:
  friend class ExecFrame;

  /// Executes one node of a kind this provider claims and the frame does not
  /// own, recursing into children through `frame`. `max_rows` is how many
  /// leading rows the parent reads (relstore's top-k bound); an engine may
  /// ignore it.
  virtual Result<Dataset> ExecOp(ExecFrame& frame, const Plan& plan,
                                 int64_t max_rows) const = 0;

  /// ExecOp's answer for a kind it has no case for. Unreachable unless
  /// Claims and ExecOp disagree: the frame refuses unclaimed kinds and runs
  /// the ones it owns itself.
  Status NoKernel(const Plan& plan) const;
};

/// One execution of a plan on an EngineProvider: per-call state and the
/// cases whose meaning does not depend on the engine.
class ExecFrame {
 public:
  /// No bound on the rows a parent reads.
  static constexpr int64_t kAllRows = std::numeric_limits<int64_t>::max();

  explicit ExecFrame(const EngineProvider& engine)
      : engine_(engine), catalog_(engine.catalog()) {}

  /// Executes `plan`; recursion re-enters here, so every plan node gets an
  /// operator span (rows and bytes counters) while tracing is on.
  Result<Dataset> Exec(const Plan& plan, int64_t max_rows = kAllRows);
  Result<TablePtr> ExecTable(const Plan& plan, int64_t max_rows = kAllRows);
  Result<NDArrayPtr> ExecArray(const Plan& plan);

  /// An Aggregate as a ⊕-fold: executes the child, then lowers the
  /// aggregate onto the algebra kernels.
  Result<Dataset> Fold(const Plan& aggregate);

 private:
  Result<Dataset> ExecNode(const Plan& plan, int64_t max_rows);
  Result<Dataset> Iterate(const Plan& plan);
  /// Executes `plan` with `loop` bound to its LoopVars.
  Result<Dataset> InLoop(ExecLoopFrame loop, const Plan& plan);

  const EngineProvider& engine_;
  const InMemoryCatalog& catalog_;
  std::vector<ExecLoopFrame> loop_stack_;
};

/// The Iterate stop rule, shared by every engine and the coordinator's
/// client-driven loop: the measure must be one cell (PlanError otherwise), a
/// null never converges, and the loop stops once the value is < epsilon.
Result<bool> MeasureConverged(const Dataset& measured, double epsilon);

/// Factory helpers. `text_only` makes the reference provider behave like a
/// legacy peer that never learned NXB1 (negotiation-fallback tests).
ProviderPtr MakeReferenceProvider(bool text_only = false);
ProviderPtr MakeRelationalProvider();
ProviderPtr MakeArrayProvider();
ProviderPtr MakeLinalgProvider();
ProviderPtr MakeGraphProvider();

}  // namespace nexus

#endif  // NEXUS_PROVIDER_PROVIDER_H_
