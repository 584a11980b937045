#include "common/query_profile.h"

namespace nexus {

namespace {

TaskContext InheritedContext(QueryProfile* profile, bool trace) {
  const TaskContext* current = CurrentTaskContext();
  TaskContext ctx = current != nullptr ? *current : TaskContext{};
  ctx.profile = profile;
  ctx.trace = ctx.trace || trace;
  return ctx;
}

}  // namespace

QueryProfile& QueryProfile::operator=(const QueryProfile& other) {
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i].store(other.counts_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  simulated_seconds_.store(other.simulated_seconds(),
                           std::memory_order_relaxed);
  return *this;
}

void QueryProfile::Add(QueryStat stat, int64_t n) {
  for (QueryProfile* p = this; p != nullptr; p = p->parent_) {
    p->counts_[static_cast<size_t>(stat)].fetch_add(
        n, std::memory_order_relaxed);
  }
}

void QueryProfile::AddSimulatedSeconds(double seconds) {
  for (QueryProfile* p = this; p != nullptr; p = p->parent_) {
    p->simulated_seconds_.fetch_add(seconds, std::memory_order_relaxed);
  }
}

QueryProfile* CurrentQueryProfile() {
  const TaskContext* ctx = CurrentTaskContext();
  return ctx != nullptr ? ctx->profile : nullptr;
}

ScopedQuery::ScopedQuery(bool trace)
    : profile_(CurrentQueryProfile()),
      ctx_(InheritedContext(&profile_, trace)),
      scoped_(&ctx_) {}

}  // namespace nexus
