// MemoryGovernor: per-tenant memory budgets with kill-or-queue degradation.
//
// Every service-managed query runs with a QueryMeter installed in its
// TaskContext; the type layer charges each materialized collection to that
// meter (common/memory.h), and the meter accrues the charge to its tenant.
// When a tenant crosses its budget the governor reacts in two ways, never
// by aborting the process:
//
//   - kill: the cheapest over-budget query of that tenant (the one whose
//     loss wastes the least work, deterministically tie-broken by query id)
//     has its CancelToken fired with a *retryable* kResourceExhausted; it
//     unwinds cooperatively, its temps are released by RAII, and its charge
//     is returned at FinishQuery. At most one victim per tenant is dying at
//     a time — the governor waits for a kill to unwind before choosing
//     another.
//   - queue: while the tenant remains over budget, UnderBudget(tenant) is
//     false, and the admission controller (which polls it as the
//     eligibility predicate) holds the tenant's queued queries back until
//     finished queries return enough memory.
//
// For tenants with a spill budget (TenantOptions::spill_budget_bytes > 0,
// out-of-core execution in src/exec/spill), a third, gentler reaction
// comes first: ask-to-spill. Spill-capable queries are asked to
// shed memory (their SpillRequested flag flips; operators partition to
// disk at the next boundary and Release the parked bytes), and the tenant
// is tolerated up to 2× its budget while shedding is in flight — spilling
// works at block granularity, so a cooperating query transiently overshoots
// before its releases land. Only when shedding fails to bring the tenant
// back does the governor fall back to killing, and the victim choice then
// uses each query's *net* charge (charged − released): bytes a query
// already parked on disk come back from a kill anyway, so counting them
// would overstate the recovery and pick the wrong victim.
//
// Other tenants are never touched: budgets, usage, and victims are all
// per-tenant, so one tenant oversubscribing its budget 10× cannot perturb
// another tenant's results or schedule.
#ifndef NEXUS_SERVICE_GOVERNOR_H_
#define NEXUS_SERVICE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/cancel.h"
#include "common/memory.h"
#include "common/result.h"
#include "common/status.h"

namespace nexus {
namespace service {

struct TenantOptions {
  /// Bytes of materialized collections the tenant may hold across all its
  /// running queries. 0 = unlimited.
  int64_t memory_budget_bytes = 0;
  /// Relative share of service capacity (reserved for future admission
  /// weighting; the morsel-pool weight comes from the query class).
  int weight = 1;
  /// Working-set bytes an operator of this tenant's queries may hold before
  /// it partitions to disk (the meter's SpillBudget()). 0 = the tenant never
  /// spills and an over-budget query is killed; > 0 makes its queries
  /// spill-capable, so the governor asks them to spill before killing.
  int64_t spill_budget_bytes = 0;
};

class MemoryGovernor {
 public:
  /// One running query's meter. Thread-safe: morsels charge from many pool
  /// workers at once. Owned by the caller; must be finished (FinishQuery)
  /// before destruction.
  class QueryMeter : public MemoryMeter {
   public:
    void Charge(int64_t bytes) override;
    /// Net accounting for the out-of-core path: bytes the query parked on
    /// disk (or freed from a working set) leave the tenant's usage.
    /// Clamped — cumulative releases never exceed cumulative charges.
    void Release(int64_t bytes) override;
    /// The tenant's spill budget, handed to operators as their threshold.
    int64_t SpillBudget() const override {
      return spill_budget_;
    }
    bool SpillRequested() const override {
      return spill_requested_.load(std::memory_order_relaxed);
    }

    int64_t charged() const { return charged_.load(std::memory_order_relaxed); }
    int64_t released() const { return released_.load(std::memory_order_relaxed); }
    /// Bytes still attributed to this query (charged − released).
    int64_t net() const { return charged() - released(); }
    /// Whether this query can answer an ask-to-spill (its tenant has a
    /// spill budget).
    bool spill_capable() const { return spill_budget_ > 0; }
    const std::string& tenant() const { return tenant_; }
    uint64_t id() const { return id_; }

   private:
    friend class MemoryGovernor;
    MemoryGovernor* governor_ = nullptr;
    std::string tenant_;
    uint64_t id_ = 0;
    CancelTokenPtr token_;
    std::atomic<int64_t> charged_{0};
    std::atomic<int64_t> released_{0};  // mutated under governor mu_
    std::atomic<bool> spill_requested_{false};
    int64_t spill_budget_ = 0;  // immutable after StartQuery
  };

  Status RegisterTenant(const std::string& name, TenantOptions options);

  /// Starts metering one query of `tenant`. `token` is the query's cancel
  /// token — the governor fires it if the query is chosen as a kill victim.
  Result<std::unique_ptr<QueryMeter>> StartQuery(const std::string& tenant,
                                                 CancelTokenPtr token);

  /// Ends metering: returns the query's entire charge to the tenant and
  /// forgets the meter. Safe to call exactly once per StartQuery.
  void FinishQuery(QueryMeter* meter);

  /// True when the tenant exists and is under (or has no) budget — the
  /// admission eligibility predicate.
  bool UnderBudget(const std::string& tenant) const;

  /// Current accrued bytes of the tenant (0 for unknown tenants).
  int64_t Usage(const std::string& tenant) const;

  /// Queries killed by budget enforcement so far.
  int64_t kills() const { return kills_.load(std::memory_order_relaxed); }

  /// Ask-to-spill rounds issued instead of (or before) kills.
  int64_t spill_requests() const {
    return spill_requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Tenant {
    TenantOptions options;
    int64_t usage = 0;  // guarded by mu_
    std::map<uint64_t, QueryMeter*> live;
  };

  /// Reacts to `tenant` being (possibly) over budget: picks and cancels a
  /// victim unless one is already dying. Caller holds mu_.
  void EnforceLocked(Tenant* tenant);

  mutable std::mutex mu_;
  std::map<std::string, Tenant> tenants_;
  uint64_t next_query_id_ = 1;
  std::atomic<int64_t> kills_{0};
  std::atomic<int64_t> spill_requests_{0};
};

}  // namespace service
}  // namespace nexus

#endif  // NEXUS_SERVICE_GOVERNOR_H_
