#include "service/governor.h"

#include <algorithm>

#include "common/str_util.h"

namespace nexus {
namespace service {

Status MemoryGovernor::RegisterTenant(const std::string& name,
                                      TenantOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(name) != 0) {
    return Status::AlreadyExists(StrCat("tenant '", name, "' already registered"));
  }
  if (options.weight < 1) options.weight = 1;
  tenants_[name].options = options;
  return Status::OK();
}

Result<std::unique_ptr<MemoryGovernor::QueryMeter>> MemoryGovernor::StartQuery(
    const std::string& tenant, CancelTokenPtr token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound(StrCat("unknown tenant '", tenant, "'"));
  }
  auto meter = std::make_unique<QueryMeter>();
  meter->governor_ = this;
  meter->tenant_ = tenant;
  meter->id_ = next_query_id_++;
  meter->token_ = std::move(token);
  // Captured once: the tenant's spill budget is the query's operator
  // threshold, and a query with one is spill-capable.
  meter->spill_budget_ = it->second.options.spill_budget_bytes;
  it->second.live[meter->id_] = meter.get();
  return meter;
}

void MemoryGovernor::FinishQuery(QueryMeter* meter) {
  if (meter == nullptr || meter->governor_ != this) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(meter->tenant_);
  if (it == tenants_.end()) return;
  it->second.live.erase(meter->id_);
  // Releases already left the tenant's usage as they happened — only the
  // net remainder comes back now.
  it->second.usage -= meter->charged() - meter->released();
  if (it->second.usage < 0) it->second.usage = 0;
  meter->governor_ = nullptr;
}

void MemoryGovernor::QueryMeter::Charge(int64_t bytes) {
  if (bytes <= 0 || governor_ == nullptr) return;
  charged_.fetch_add(bytes, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(governor_->mu_);
  auto it = governor_->tenants_.find(tenant_);
  if (it == governor_->tenants_.end()) return;
  it->second.usage += bytes;
  governor_->EnforceLocked(&it->second);
}

void MemoryGovernor::QueryMeter::Release(int64_t bytes) {
  if (bytes <= 0 || governor_ == nullptr) return;
  std::lock_guard<std::mutex> lock(governor_->mu_);
  // Clamp under the lock: never return more than is still outstanding.
  int64_t outstanding =
      charged_.load(std::memory_order_relaxed) -
      released_.load(std::memory_order_relaxed);
  int64_t give = std::min(bytes, outstanding);
  if (give <= 0) return;
  released_.fetch_add(give, std::memory_order_relaxed);
  auto it = governor_->tenants_.find(tenant_);
  if (it == governor_->tenants_.end()) return;
  it->second.usage -= give;
  if (it->second.usage < 0) it->second.usage = 0;
}

void MemoryGovernor::EnforceLocked(Tenant* tenant) {
  int64_t budget = tenant->options.memory_budget_bytes;
  if (budget <= 0 || tenant->usage <= budget) return;
  // One dying victim at a time: its charge comes back at FinishQuery, and
  // piling on more kills while it unwinds would overshoot the correction.
  for (const auto& [id, m] : tenant->live) {
    if (m->token_ != nullptr && m->token_->cancelled()) return;
  }
  // Ask-to-spill first: flip the flag on every spill-capable query that
  // has not been asked yet and give the round a chance to shed before any
  // kill. Operators poll the flag at partition boundaries and Release what
  // they park on disk.
  bool asked_now = false;
  bool any_capable = false;
  for (const auto& [id, m] : tenant->live) {
    if (!m->spill_capable()) continue;
    any_capable = true;
    bool was = m->spill_requested_.exchange(true, std::memory_order_relaxed);
    asked_now = asked_now || !was;
  }
  if (asked_now) {
    spill_requests_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Shedding works at block granularity: a cooperating query charges each
  // loaded partition before its releases land, so tolerate spill-capable
  // tenants up to 2× budget while an ask is outstanding.
  if (any_capable && tenant->usage <= 2 * budget) return;
  // Victim choice, deterministic: the cheapest query whose removal brings
  // the tenant back under budget (least work wasted); if none suffices
  // alone, the most expensive one (biggest step toward recovery). Ties
  // break on the lower query id. Queries without a token can't be killed.
  // Cost is the *net* charge — bytes a victim already released by spilling
  // return nothing when it dies, so they must not count toward recovery.
  int64_t over = tenant->usage - budget;
  QueryMeter* victim = nullptr;
  bool victim_sufficient = false;
  for (const auto& [id, m] : tenant->live) {
    if (m->token_ == nullptr) continue;
    int64_t c = m->net();
    bool sufficient = c >= over;
    if (victim == nullptr) {
      victim = m;
      victim_sufficient = sufficient;
      continue;
    }
    int64_t vc = victim->net();
    bool better = sufficient ? (!victim_sufficient || c < vc)
                             : (!victim_sufficient && c > vc);
    if (better) {
      victim = m;
      victim_sufficient = sufficient;
    }
  }
  if (victim == nullptr) return;
  kills_.fetch_add(1, std::memory_order_relaxed);
  victim->token_->Cancel(
      StatusCode::kResourceExhausted,
      StrCat("tenant '", victim->tenant_, "' over memory budget (",
             tenant->usage, " > ", budget, " bytes); query killed to recover ",
             victim->net(), " bytes — retry later"));
}

bool MemoryGovernor::UnderBudget(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  int64_t budget = it->second.options.memory_budget_bytes;
  return budget <= 0 || it->second.usage < budget;
}

int64_t MemoryGovernor::Usage(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.usage;
}

}  // namespace service
}  // namespace nexus
