#include "federation/transport.h"

#include "common/query_profile.h"
#include "common/str_util.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace nexus {

namespace {

const char* KindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPlan:
      return "plan";
    case MessageKind::kData:
      return "data";
    case MessageKind::kControl:
      return "control";
  }
  return "?";
}

/// Registry instruments that are not per-query stats, resolved once
/// (pointers are stable forever). The per-query stats go through
/// telemetry::Count.
struct TransportInstruments {
  telemetry::Counter* faults;
  telemetry::Histogram* message_bytes;

  static const TransportInstruments& Get() {
    static const TransportInstruments in{
        telemetry::MetricsRegistry::Global().counter("transport.faults"),
        telemetry::MetricsRegistry::Global().histogram("transport.message_bytes"),
    };
    return in;
  }
};

/// One trace span per wire message, on the receiving server's lane.
void TraceMessage(const std::string& from, const std::string& to, int64_t bytes,
                  MessageKind kind, bool failed, double sim_start,
                  double sim_dur) {
  if (!telemetry::Enabled()) return;
  telemetry::RecordComplete(
      telemetry::kCategoryTransport, StrCat(KindName(kind), " ", from, "->", to),
      to == kClientNode ? "" : to, sim_start, sim_dur,
      {{"bytes", bytes}, {"failed", failed ? 1 : 0}});
}

}  // namespace

std::string FaultEvent::ToString() const {
  return StrCat(what, " ", from, "->", to, " @", FormatDouble(time * 1e3, 3),
                "ms");
}

int Transport::Intern(const std::string& node) {
  auto it = endpoint_ids_.find(node);
  if (it != endpoint_ids_.end()) return it->second;
  int id = static_cast<int>(endpoints_.size());
  endpoints_.push_back(Endpoint{node, LinkStats{}});
  endpoint_ids_.emplace(node, id);
  return id;
}

double Transport::Charge(double seconds) {
  double start = simulated_seconds_;
  simulated_seconds_ += seconds;
  if (QueryProfile* p = CurrentQueryProfile()) p->AddSimulatedSeconds(seconds);
  return start;
}

void Transport::Meter(const std::string& from, const std::string& to,
                      int64_t bytes, MessageKind kind, bool failed) {
  const int a = Intern(from);
  const int b = Intern(to);
  const int k = static_cast<int>(kind);
  auto count = [bytes](LinkStats& s) {
    ++s.messages;
    s.bytes += bytes;
  };
  count(total_);
  count(by_kind_[k]);
  count(links_[{a, b}]);
  count(endpoints_[static_cast<size_t>(a)].through);
  if (b != a) count(endpoints_[static_cast<size_t>(b)].through);
  if (failed) count(failed_);

  telemetry::Count(QueryStat::kMessages);
  telemetry::Count(QueryStat::kBytes, bytes);
  if (failed) {
    telemetry::Count(QueryStat::kFailedMessages);
  } else {
    TransportInstruments::Get().message_bytes->Record(
        static_cast<double>(bytes));
  }
  // The per-kind stats follow MessageKind's order.
  auto of_kind = [k](QueryStat plan) {
    return static_cast<QueryStat>(static_cast<int>(plan) + k);
  };
  telemetry::Count(of_kind(QueryStat::kPlanMessages));
  telemetry::Count(of_kind(QueryStat::kPlanBytes), bytes);
  if (from == kClientNode || to == kClientNode) {
    telemetry::Count(QueryStat::kClientBytes, bytes);
  }
}

double Transport::Send(const std::string& from, const std::string& to,
                       int64_t bytes, MessageKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  return SendLocked(from, to, bytes, kind);
}

double Transport::SendLocked(const std::string& from, const std::string& to,
                             int64_t bytes, MessageKind kind) {
  double seconds = options_.latency_seconds +
                   static_cast<double>(bytes) / options_.bandwidth_bytes_per_second;
  double start = Charge(seconds);
  Meter(from, to, bytes, kind, /*failed=*/false);
  TraceMessage(from, to, bytes, kind, /*failed=*/false, start, seconds);
  return seconds;
}

Status Transport::TrySend(const std::string& from, const std::string& to,
                          int64_t bytes, MessageKind kind, double* seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!faults_.enabled) {
    double s = SendLocked(from, to, bytes, kind);
    if (seconds != nullptr) *seconds = s;
    return Status::OK();
  }

  const TransportInstruments& in = TransportInstruments::Get();

  // A failed attempt is metered as wasted traffic and charges `charged`
  // simulated seconds: one latency when the sender merely waited to learn
  // nothing came back, the full cost when the payload left before
  // vanishing.
  auto fail = [&](std::string what, Status status, double charged) {
    fault_log_.push_back(
        FaultEvent{simulated_seconds_, from, to, std::move(what)});
    double start = Charge(charged);
    if (seconds != nullptr) *seconds = charged;
    Meter(from, to, bytes, kind, /*failed=*/true);
    in.faults->Increment();
    TraceMessage(from, to, bytes, kind, /*failed=*/true, start, charged);
    return status;
  };

  if (partitions_.count(NormalizedLink(from, to)) != 0) {
    return fail("partition",
                Status::Unavailable(
                    StrCat("link ", from, " -> ", to, " is partitioned")),
                options_.latency_seconds);
  }
  if (IsDownLocked(from)) {
    return fail(StrCat("down:", from),
                Status::Unavailable(StrCat("server '", from, "' is down")),
                options_.latency_seconds);
  }
  if (IsDownLocked(to)) {
    return fail(StrCat("down:", to),
                Status::Unavailable(StrCat("server '", to, "' is down")),
                options_.latency_seconds);
  }
  if (faults_.drop_probability > 0.0 &&
      fault_rng_.NextBool(faults_.drop_probability)) {
    return fail("drop",
                Status::Timeout(
                    StrCat("message ", from, " -> ", to, " lost in flight")),
                options_.latency_seconds +
                    static_cast<double>(bytes) /
                        options_.bandwidth_bytes_per_second);
  }

  double spike = 0.0;
  if (faults_.latency_spike_probability > 0.0 &&
      fault_rng_.NextBool(faults_.latency_spike_probability)) {
    fault_log_.push_back(FaultEvent{simulated_seconds_, from, to, "spike"});
    in.faults->Increment();
    spike = faults_.latency_spike_seconds;
  }
  double s = SendLocked(from, to, bytes, kind) + spike;
  Charge(spike);
  if (seconds != nullptr) *seconds = s;
  return Status::OK();
}

void Transport::SetNodeBinaryCapable(const std::string& node,
                                     bool accepts_binary) {
  std::lock_guard<std::mutex> lock(mu_);
  binary_capable_[node] = accepts_binary;
}

WireFormat Transport::NegotiatedFormat(const std::string& a,
                                       const std::string& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto capable = [this](const std::string& n) {
    auto it = binary_capable_.find(n);
    return it == binary_capable_.end() || it->second;
  };
  return capable(a) && capable(b) ? WireFormat::kBinary : WireFormat::kText;
}

void Transport::SetFaultOptions(FaultOptions faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = std::move(faults);
  fault_rng_ = Rng(faults_.seed);
  partitions_.clear();
  for (const auto& [a, b] : faults_.partitioned_links) {
    partitions_.insert(NormalizedLink(a, b));
  }
}

bool Transport::IsDown(const std::string& server) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsDownLocked(server);
}

bool Transport::IsDownLocked(const std::string& server) const {
  if (!faults_.enabled || server == kClientNode) return false;
  for (const DownWindow& w : faults_.down_windows) {
    if (w.server == server && simulated_seconds_ >= w.start_seconds &&
        simulated_seconds_ < w.end_seconds) {
      return true;
    }
  }
  return false;
}

std::pair<std::string, std::string> Transport::NormalizedLink(
    const std::string& a, const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

bool Transport::IsPartitioned(const std::string& a, const std::string& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!faults_.enabled) return false;
  return partitions_.count(NormalizedLink(a, b)) != 0;
}

void Transport::PartitionLink(const std::string& a, const std::string& b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.insert(NormalizedLink(a, b));
}

void Transport::HealLink(const std::string& a, const std::string& b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.erase(NormalizedLink(a, b));
}

LinkStats Transport::Through(const std::string& node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoint_ids_.find(node);
  return it == endpoint_ids_.end()
             ? LinkStats{}
             : endpoints_[static_cast<size_t>(it->second)].through;
}

std::map<std::pair<std::string, std::string>, LinkStats> Transport::PerLink()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::pair<std::string, std::string>, LinkStats> out;
  for (const auto& [link, stats] : links_) {
    out[{endpoints_[static_cast<size_t>(link.first)].name,
         endpoints_[static_cast<size_t>(link.second)].name}] = stats;
  }
  return out;
}

void Transport::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_.clear();
  endpoint_ids_.clear();
  links_.clear();
  total_ = LinkStats{};
  for (LinkStats& s : by_kind_) s = LinkStats{};
  failed_ = LinkStats{};
  fault_log_.clear();
  simulated_seconds_ = 0.0;
  fault_rng_ = Rng(faults_.seed);
}

}  // namespace nexus
