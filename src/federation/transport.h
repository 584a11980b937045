// Simulated network transport between the client tier and servers.
//
// The paper's desideratum 4 and its LINQ chattiness claim are statements
// about *where bytes flow and how many round trips occur*. This transport
// meters every message (endpoint pair, payload size, purpose) and charges a
// configurable latency + bandwidth cost, so experiments report exact message
// counts, per-link byte totals, bytes routed through the client, and a
// simulated wall-clock under realistic network parameters.
//
// Real federations also lose messages, stall, and drop servers. The
// transport therefore carries a deterministic, seeded fault model
// (FaultOptions): per-message drops, latency spikes, partitioned links, and
// scripted server-down windows expressed in simulated time. Fault-aware
// callers use TrySend, which returns kTimeout/kUnavailable when a fault
// fires; Send stays the raw infallible meter. With faults disabled the two
// paths are byte-for-byte identical.
#ifndef NEXUS_FEDERATION_TRANSPORT_H_
#define NEXUS_FEDERATION_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/wire_format.h"

namespace nexus {

/// Name of the client tier endpoint.
inline const char kClientNode[] = "client";

struct TransportOptions {
  /// One-way message latency (seconds). Default 1 ms (same-datacenter RPC).
  double latency_seconds = 0.001;
  /// Link bandwidth (bytes/second). Default 1 Gbit/s.
  double bandwidth_bytes_per_second = 125e6;
};

/// A scripted outage: `server` is unreachable while the simulated clock is
/// inside [start_seconds, end_seconds).
struct DownWindow {
  std::string server;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Deterministic fault-injection knobs. Everything is driven by a seeded
/// RNG plus the simulated clock, so a given (options, traffic) pair always
/// yields the same fault trace.
struct FaultOptions {
  /// Master switch. When false, TrySend is exactly Send (zero overhead).
  bool enabled = false;
  /// Probability that any one message is lost in flight (kTimeout).
  double drop_probability = 0.0;
  /// Probability that a delivered message suffers an extra latency spike.
  double latency_spike_probability = 0.0;
  /// Extra one-way delay charged when a spike fires.
  double latency_spike_seconds = 0.05;
  /// Seed for the fault RNG (drops and spikes).
  uint64_t seed = 0x5EEDF417ULL;
  /// Scripted server outages in simulated time.
  std::vector<DownWindow> down_windows;
  /// Unordered endpoint pairs that cannot exchange messages (kUnavailable).
  std::vector<std::pair<std::string, std::string>> partitioned_links;
};

/// Why a message was sent (for reporting). QueryStat's per-kind entries
/// (common/query_profile.h) follow this order.
enum class MessageKind { kPlan, kData, kControl };

/// One injected fault, stamped with the simulated time it fired.
struct FaultEvent {
  double time = 0.0;
  std::string from;
  std::string to;
  std::string what;  // "drop" | "partition" | "down:<server>" | "spike"

  std::string ToString() const;
};

struct LinkStats {
  int64_t messages = 0;
  int64_t bytes = 0;
};

/// Meters and prices all traffic. Every attempt — delivered or failed by
/// the fault model — updates O(1) running totals: overall, per
/// MessageKind, failed, per interned endpoint and per ordered link. So a
/// send costs the same after a million messages as after one, and every
/// accessor is a lookup, not a scan. Each attempt is also charged to the
/// sending thread's QueryProfile (common/query_profile.h), which is where
/// per-query message, byte and simulated-time numbers come from.
///
/// Thread-safe: the multi-tenant service runs many coordinators against one
/// shared transport, so every mutating or aggregating method takes an
/// internal lock. The simulated clock remains a single global
/// sequence — concurrent sends serialize on the lock in arrival order,
/// which models one shared wire.
///
/// The reference-returning accessors (`fault_log()`, `fault_options()`)
/// are snapshots for single-threaded inspection; do not call them while
/// other threads are sending.
class Transport {
 public:
  explicit Transport(TransportOptions options = {}) : options_(options) {}

  /// Records one message and returns the simulated seconds it took.
  /// Infallible raw meter: the fault model does not apply here.
  double Send(const std::string& from, const std::string& to, int64_t bytes,
              MessageKind kind);

  /// Fault-aware send. With faults disabled, identical to Send. With faults
  /// enabled, may return kUnavailable (partitioned link, server inside a
  /// down window) or kTimeout (message dropped). Failed attempts are still
  /// metered (counted as failed) and charged simulated time — a lost message
  /// costs real network. `*seconds`, when given, receives the time charged
  /// whether or not the send succeeded.
  Status TrySend(const std::string& from, const std::string& to, int64_t bytes,
                 MessageKind kind, double* seconds = nullptr);

  /// Installs (or replaces) the fault model and reseeds its RNG, so two
  /// transports configured identically produce identical fault traces.
  void SetFaultOptions(FaultOptions faults);
  const FaultOptions& fault_options() const { return faults_; }

  /// Registers whether `node` accepts the binary wire format. Unregistered
  /// endpoints (including the client tier) are assumed binary-capable;
  /// legacy peers register false at AddServer time.
  void SetNodeBinaryCapable(const std::string& node, bool accepts_binary);

  /// The format both endpoints of a link speak: binary unless either peer
  /// only accepts text. Negotiation is the only way to reach the text wire.
  WireFormat NegotiatedFormat(const std::string& a, const std::string& b) const;

  /// Advances the simulated clock without sending anything — retry backoff
  /// pauses charge their wait here so scripted down windows eventually pass.
  void AdvanceTime(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    Charge(seconds);
  }

  /// True when `server` is inside a scripted down window at the current
  /// simulated time.
  bool IsDown(const std::string& server) const;

  /// True when the (unordered) pair is currently partitioned.
  bool IsPartitioned(const std::string& a, const std::string& b) const;

  /// Dynamic partition control (in addition to FaultOptions's script).
  void PartitionLink(const std::string& a, const std::string& b);
  void HealLink(const std::string& a, const std::string& b);

  int64_t total_messages() const { return Read(total_).messages; }
  int64_t total_bytes() const { return Read(total_).bytes; }
  int64_t messages_of(MessageKind kind) const {
    return Read(by_kind_[static_cast<int>(kind)]).messages;
  }
  int64_t bytes_of(MessageKind kind) const {
    return Read(by_kind_[static_cast<int>(kind)]).bytes;
  }

  /// Failed-attempt accounting (subset of the totals above).
  int64_t failed_messages() const { return Read(failed_).messages; }
  int64_t failed_bytes() const { return Read(failed_).bytes; }

  /// Traffic that entered or left the named endpoint ("client" for the
  /// through-the-application measure of desideratum 4).
  int64_t bytes_through(const std::string& node) const {
    return Through(node).bytes;
  }
  int64_t messages_through(const std::string& node) const {
    return Through(node).messages;
  }

  /// Total simulated seconds across all messages (serialized link model).
  double simulated_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return simulated_seconds_;
  }

  /// Per ordered endpoint pair.
  std::map<std::pair<std::string, std::string>, LinkStats> PerLink() const;

  /// Every fault injected so far, in firing order (the chaos trace).
  const std::vector<FaultEvent>& fault_log() const { return fault_log_; }
  int64_t faults_injected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(fault_log_.size());
  }

  /// Zeroes every traffic total, clears the fault trace and the simulated
  /// clock (down windows therefore re-apply), and reseeds the fault RNG.
  /// Fault options and dynamic partitions are kept.
  void Reset();

 private:
  /// An interned endpoint and the traffic that entered or left it.
  struct Endpoint {
    std::string name;
    LinkStats through;
  };

  static std::pair<std::string, std::string> NormalizedLink(
      const std::string& a, const std::string& b);

  LinkStats Read(const LinkStats& stats) const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats;
  }
  LinkStats Through(const std::string& node) const;
  /// Index of `node` in endpoints_, interning it on first sight. Only the
  /// first send on a new endpoint or link allocates. Caller holds mu_.
  int Intern(const std::string& node);
  /// Advances the simulated clock by `seconds`, charges them to the calling
  /// query's profile, and returns the clock before. Caller holds mu_.
  double Charge(double seconds);
  /// Counts one attempt in every running total, the registry instruments
  /// and the calling query's profile. Caller holds mu_.
  void Meter(const std::string& from, const std::string& to, int64_t bytes,
             MessageKind kind, bool failed);

  /// Send and IsDown without taking mu_: TrySend holds it across them so
  /// one logical attempt is atomic on the wire. Caller holds mu_.
  double SendLocked(const std::string& from, const std::string& to,
                    int64_t bytes, MessageKind kind);
  bool IsDownLocked(const std::string& server) const;

  mutable std::mutex mu_;
  TransportOptions options_;
  FaultOptions faults_;
  std::map<std::string, bool> binary_capable_;
  Rng fault_rng_{0x5EEDF417ULL};
  std::set<std::pair<std::string, std::string>> partitions_;
  std::vector<Endpoint> endpoints_;
  std::map<std::string, int> endpoint_ids_;
  std::map<std::pair<int, int>, LinkStats> links_;  // by endpoint index
  LinkStats total_;
  LinkStats by_kind_[3];  // indexed by MessageKind
  LinkStats failed_;
  std::vector<FaultEvent> fault_log_;
  double simulated_seconds_ = 0.0;
};

}  // namespace nexus

#endif  // NEXUS_FEDERATION_TRANSPORT_H_
