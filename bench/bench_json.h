// Machine-readable benchmark output. Every bench_* binary emits a
// BENCH_<name>.json next to wherever it runs, one record per measurement:
//   {"op": ..., "rows": ..., "wall_ms": ..., "threads": ...,
//    "fragments": ..., "messages": ..., "retries": ...}
// so sweeps can be plotted or regression-tracked without scraping the
// human-oriented tables. Benches that measure simulated network time (the
// federation experiments) record simulated milliseconds in wall_ms; the op
// name says which.
#ifndef NEXUS_BENCH_BENCH_JSON_H_
#define NEXUS_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/query_profile.h"
#include "optimizer/optimizer.h"

namespace nexus {
namespace benchjson {

class Recorder {
 public:
  explicit Recorder(std::string bench) : bench_(std::move(bench)) {}
  ~Recorder() { Write(); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Appends one measurement. threads <= 0 records the process-wide budget.
  void Record(const std::string& op, long long rows, double wall_ms,
              int threads = 0) {
    Entry e;
    e.op = op;
    e.rows = rows;
    e.wall_ms = wall_ms;
    e.threads = threads > 0 ? threads : GetThreadCount();
    entries_.push_back(std::move(e));
  }

  /// Federation measurement: also records the per-call query-profile
  /// counts that matter for regression-tracking distributed runs.
  void RecordFederated(const std::string& op, long long rows, double wall_ms,
                       long long fragments, long long messages,
                       long long retries, int threads = 0) {
    Record(op, rows, wall_ms, threads);
    Entry& e = entries_.back();
    e.fragments = fragments;
    e.messages = messages;
    e.retries = retries;
  }

  /// Wire-level measurement (E13): federation counts plus the bytes that
  /// actually crossed the simulated network and the provider plan-cache
  /// hits, so the text-vs-binary ablation is regression-trackable.
  void RecordWire(const std::string& op, long long rows, double wall_ms,
                  long long fragments, long long messages, long long retries,
                  long long bytes_on_wire, long long plan_cache_hits,
                  int threads = 0) {
    RecordFederated(op, rows, wall_ms, fragments, messages, retries, threads);
    Entry& e = entries_.back();
    e.bytes_on_wire = bytes_on_wire;
    e.plan_cache_hits = plan_cache_hits;
  }

  /// The same two records, with the counts read off one call's profile
  /// (ExecutionMetrics::profile).
  void RecordFederated(const std::string& op, long long rows, double wall_ms,
                       const QueryProfile& p, int threads = 0) {
    RecordFederated(op, rows, wall_ms, p[QueryStat::kFragments],
                    p[QueryStat::kMessages], p[QueryStat::kRetries], threads);
  }
  void RecordWire(const std::string& op, long long rows, double wall_ms,
                  const QueryProfile& p, int threads = 0) {
    RecordWire(op, rows, wall_ms, p[QueryStat::kFragments],
               p[QueryStat::kMessages], p[QueryStat::kRetries],
               p[QueryStat::kBytes], p[QueryStat::kPlanCacheHits], threads);
  }

  /// Attaches the optimizer's pass counters to the most recent measurement
  /// (E7/E14: what the planner did, next to what the run cost).
  void AnnotateOptimizer(const OptimizerStats& s) {
    if (entries_.empty()) return;
    Entry& e = entries_.back();
    e.has_optimizer = true;
    e.opt = s;
  }

  /// Writes BENCH_<bench>.json into the working directory. The destructor
  /// calls this, so a bench only needs to keep the Recorder alive in main.
  void Write() const {
    std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                 Escaped(bench_).c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"op\": \"%s\", \"rows\": %lld, \"wall_ms\": %.6f, "
                   "\"threads\": %d, \"fragments\": %lld, \"messages\": %lld, "
                   "\"retries\": %lld, \"bytes_on_wire\": %lld, "
                   "\"plan_cache_hits\": %lld",
                   Escaped(e.op).c_str(), e.rows, e.wall_ms, e.threads,
                   e.fragments, e.messages, e.retries, e.bytes_on_wire,
                   e.plan_cache_hits);
      if (e.has_optimizer) {
        std::fprintf(f,
                     ", \"selections_pushed\": %lld, "
                     "\"intents_recognized\": %lld, "
                     "\"projects_inserted\": %lld, "
                     "\"expressions_folded\": %lld, "
                     "\"joins_reordered\": %lld, "
                     "\"estimated_rows_root\": %lld, "
                     "\"ops_lowered\": %lld",
                     static_cast<long long>(e.opt.selections_pushed),
                     static_cast<long long>(e.opt.intents_recognized),
                     static_cast<long long>(e.opt.projects_inserted),
                     static_cast<long long>(e.opt.expressions_folded),
                     static_cast<long long>(e.opt.joins_reordered),
                     static_cast<long long>(e.opt.estimated_rows_root),
                     static_cast<long long>(e.opt.ops_lowered));
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  struct Entry {
    std::string op;
    long long rows = 0;
    double wall_ms = 0.0;
    int threads = 0;
    // Federation accounting (zero for pure-engine benches).
    long long fragments = 0;
    long long messages = 0;
    long long retries = 0;
    // Wire-level accounting (zero unless recorded via RecordWire).
    long long bytes_on_wire = 0;
    long long plan_cache_hits = 0;
    // Optimizer pass counters (present only after AnnotateOptimizer).
    bool has_optimizer = false;
    OptimizerStats opt;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (static_cast<unsigned char>(c) < 0x20) {
        out.push_back(' ');
        continue;
      }
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<Entry> entries_;
};

}  // namespace benchjson
}  // namespace nexus

#endif  // NEXUS_BENCH_BENCH_JSON_H_
