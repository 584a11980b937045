#include "telemetry/metrics.h"

#include <array>
#include <cmath>

#include "common/str_util.h"

namespace nexus {
namespace telemetry {

namespace {

int BucketOf(double value) {
  if (!(value >= 1.0)) return 0;  // also catches NaN
  int b = static_cast<int>(std::floor(std::log2(value))) + 1;
  return b >= Histogram::kBuckets ? Histogram::kBuckets - 1 : b;
}

}  // namespace

void Histogram::Record(double value) {
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::mean() const {
  int64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::ApproxQuantile(double p) const {
  int64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  int64_t rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      return i == 0 ? 1.0 : std::ldexp(1.0, i);  // bucket upper edge
    }
  }
  return std::ldexp(1.0, kBuckets - 1);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    out[static_cast<size_t>(i)] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Count(QueryStat stat, int64_t n) {
  static const auto counters = [] {
    std::array<Counter*, static_cast<size_t>(QueryStat::kCount_)> out{};
    for (size_t i = 0; i < out.size(); ++i) {
      const auto s = static_cast<QueryStat>(i);
      if (s == QueryStat::kMorsels) continue;  // the pool's own total
      out[i] = MetricsRegistry::Global().counter(QueryStatName(s));
    }
    return out;
  }();
  counters[static_cast<size_t>(stat)]->Add(n);
  CountForQuery(stat, n);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: outlives static dtors
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::map<std::string, int64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += StrCat(name, " = ", c->value(), "\n");
  }
  for (const auto& [name, g] : gauges_) {
    out += StrCat(name, " = ", FormatDouble(g->value(), 6), "\n");
  }
  for (const auto& [name, h] : histograms_) {
    out += StrCat(name, " = {count=", h->count(),
                  " mean=", FormatDouble(h->mean(), 3),
                  " p50<=", FormatDouble(h->ApproxQuantile(0.5), 3),
                  " p99<=", FormatDouble(h->ApproxQuantile(0.99), 3), "}\n");
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Set(0.0);
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace telemetry
}  // namespace nexus
