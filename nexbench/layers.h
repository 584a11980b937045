// Per-layer accounting for the traced run: folds recorded spans into
// per-layer self times and counts, and measures the benchmark's own calls
// into layer entry points (optimizer, wire codec, plan parser) outside the
// closed loop.
#ifndef NEXBENCH_LAYERS_H_
#define NEXBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/telemetry.h"

namespace nexbench {

/// Name of the span the benchmark opens around every Server::Execute call;
/// its trace marks the spans that belong to a measured read.
inline constexpr const char kExecuteSpan[] = "bench.execute";

/// Span totals of every traced read, folded batch by batch so the span
/// buffer can be cleared as the run goes. A span's self time is its wall
/// duration minus the part of it its child spans cover; morsel spans are
/// not subtracted (they run on pool workers in parallel with their parent
/// kernel), so each kernel's self time includes its morsels' work.
class SpanFold {
 public:
  /// Folds one batch. Every span of a read must be in the same batch —
  /// call only while no read is in flight.
  void Add(const std::vector<nexus::telemetry::SpanRecord>& spans);

  /// Self milliseconds per layer: service, federation, provider,
  /// relational, algebra, graph, linalg, arraydb, reference, other.
  const std::map<std::string, double>& layer_ms() const { return layer_ms_; }
  double kernel_ms(const std::string& prefix) const;
  double place_ms() const { return place_ms_; }
  int64_t rel_rows_in() const { return rel_rows_in_; }
  int64_t rel_rows_out() const { return rel_rows_out_; }
  int64_t alg_entries() const { return alg_entries_; }
  int64_t spans() const { return spans_; }
  int64_t reads() const { return reads_; }

 private:
  std::map<std::string, double> layer_ms_;
  std::map<std::string, double> kernel_ms_;  // by name prefix ("rel.", ...)
  double place_ms_ = 0.0;
  int64_t rel_rows_in_ = 0;
  int64_t rel_rows_out_ = 0;
  int64_t alg_entries_ = 0;
  int64_t spans_ = 0;
  int64_t reads_ = 0;
};

/// Outside-call probes over every template: Optimize time and root q-error,
/// NXB1 encode/decode throughput on results and the largest scanned input,
/// and plan wire parse time. Appends optimizer.* and core.* metrics.
void ProbeTemplates(Workload& w, std::vector<Metric>* out);

}  // namespace nexbench

#endif  // NEXBENCH_LAYERS_H_
