#include "common/query_profile.h"

#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"

namespace nexus {

namespace {

// Registry names in QueryStat order, from the same list as the enum.
constexpr const char* kStatNames[] = {
#define NEXUS_QUERY_STAT_NAME(stat, name) name,
    NEXUS_QUERY_STATS(NEXUS_QUERY_STAT_NAME)
#undef NEXUS_QUERY_STAT_NAME
};

TaskContext InheritedContext(QueryProfile* profile, bool trace,
                             const std::function<double()>* sim_clock) {
  const TaskContext* current = CurrentTaskContext();
  TaskContext ctx = current != nullptr ? *current : TaskContext{};
  ctx.profile = profile;
  ctx.trace = ctx.trace || trace;
  if (*sim_clock) ctx.sim_clock = sim_clock;
  return ctx;
}

}  // namespace

const char* QueryStatName(QueryStat stat) {
  return kStatNames[static_cast<size_t>(stat)];
}

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

std::string QueryProfile::ToString(const char* separator) const {
  // (prefix, "prefix: a=1 b=2"), in order of first appearance.
  std::vector<std::pair<std::string_view, std::string>> groups;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const int64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    const std::string_view name = kStatNames[i];
    const size_t dot = name.find('.');
    const std::string_view prefix = name.substr(0, dot);
    auto it = groups.begin();
    while (it != groups.end() && it->first != prefix) ++it;
    if (it == groups.end()) {
      it = groups.emplace(groups.end(), prefix, StrCat(prefix, ":"));
    }
    it->second += StrCat(" ", name.substr(dot + 1), "=", n);
  }
  std::string out;
  for (const auto& [prefix, line] : groups) {
    if (!out.empty()) out += separator;
    out += line;
  }
  return out;
}

QueryProfile* CurrentQueryProfile() {
  const TaskContext* ctx = CurrentTaskContext();
  return ctx != nullptr ? ctx->profile : nullptr;
}

ScopedQuery::ScopedQuery(bool trace, std::function<double()> sim_clock)
    : profile_(CurrentQueryProfile()),
      sim_clock_(std::move(sim_clock)),
      ctx_(InheritedContext(&profile_, trace, &sim_clock_)),
      scoped_(&ctx_) {}

}  // namespace nexus
