#include "layers.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "core/serialize.h"
#include "federation/coordinator.h"
#include "optimizer/optimizer.h"

namespace nexbench {

using nexus::telemetry::SpanRecord;

namespace {

// Engine layer of a server, by the server names every workload uses.
std::string EngineOfServer(const std::string& server) {
  if (server == "relstore" || server == "dimstore" ||
      server.rfind("loopstore", 0) == 0) {
    return "relational";
  }
  if (server == "arraydb") return "arraydb";
  if (server == "linalg") return "linalg";
  if (server == "graphd") return "graph";
  if (server == "reference") return "reference";
  return "other";
}

const std::pair<const char*, const char*> kKernelPrefixes[] = {
    {"rel.", "relational"}, {"alg.", "algebra"}, {"la.", "linalg"},
    {"ad.", "arraydb"},     {"graph.", "graph"}};

std::string LayerOf(const SpanRecord& s) {
  const std::string cat = s.category;
  if (cat == nexus::telemetry::kCategoryService) return "service";
  if (cat == nexus::telemetry::kCategoryCoordinator ||
      cat == nexus::telemetry::kCategoryTransport) {
    return "federation";
  }
  if (cat == nexus::telemetry::kCategoryServer) return "provider";
  if (cat == nexus::telemetry::kCategoryOperator) return EngineOfServer(s.server);
  if (cat == nexus::telemetry::kCategoryEngine) {
    for (const auto& [prefix, layer] : kKernelPrefixes) {
      if (s.name.rfind(prefix, 0) == 0) return layer;
    }
  }
  return "other";
}

// Length of the union of [lo, hi) intervals clipped to [begin, end).
double CoveredUs(std::vector<std::pair<double, double>> iv, double begin,
                 double end) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, begin);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

void SpanFold::Add(const std::vector<SpanRecord>& spans) {
  spans_ += static_cast<int64_t>(spans.size());
  std::set<uint64_t> read_traces;
  for (const SpanRecord& s : spans) {
    if (s.name == kExecuteSpan) {
      read_traces.insert(s.trace);
      ++reads_;
    }
  }
  auto timed = [](const SpanRecord& s) {
    return s.wall_dur_us > 0.0 &&
           std::string(s.category) != nexus::telemetry::kCategoryMorsel;
  };
  std::unordered_map<nexus::telemetry::SpanId,
                     std::vector<std::pair<double, double>>>
      child_iv;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && timed(s)) {
      child_iv[s.parent].emplace_back(s.wall_start_us,
                                      s.wall_start_us + s.wall_dur_us);
    }
  }
  for (const SpanRecord& s : spans) {
    if (read_traces.count(s.trace) == 0 || !timed(s)) continue;
    const double end = s.wall_start_us + s.wall_dur_us;
    auto it = child_iv.find(s.id);
    const double self_us =
        it == child_iv.end()
            ? s.wall_dur_us
            : s.wall_dur_us - CoveredUs(it->second, s.wall_start_us, end);
    const std::string layer = LayerOf(s);
    layer_ms_[layer] += self_us / 1e3;
    if (std::string(s.category) == nexus::telemetry::kCategoryEngine) {
      for (const auto& [prefix, unused] : kKernelPrefixes) {
        if (s.name.rfind(prefix, 0) == 0) kernel_ms_[prefix] += self_us / 1e3;
      }
    }
    if (s.name == "plan" &&
        std::string(s.category) == nexus::telemetry::kCategoryCoordinator) {
      place_ms_ += s.wall_dur_us / 1e3;
    }
    if (s.name.rfind("rel.", 0) == 0) {
      rel_rows_in_ += s.CounterOr("rows_in", 0) + s.CounterOr("rows_left", 0) +
                      s.CounterOr("rows_right", 0);
    }
    if (std::string(s.category) == nexus::telemetry::kCategoryServer &&
        EngineOfServer(s.server) == "relational") {
      rel_rows_out_ += s.CounterOr("rows", 0);
    }
    if (s.name.rfind("alg.", 0) == 0) {
      for (const auto& [key, v] : s.counters) {
        if (key.rfind("entries", 0) == 0 || key == "rows_in") alg_entries_ += v;
      }
    }
  }
}

double SpanFold::kernel_ms(const std::string& prefix) const {
  auto it = kernel_ms_.find(prefix);
  return it == kernel_ms_.end() ? 0.0 : it->second;
}

namespace {

void CollectScans(const nexus::Plan& p, std::set<std::string>* out) {
  if (p.kind() == nexus::OpKind::kScan) out->insert(p.As<nexus::ScanOp>().table);
  for (const auto& c : p.children()) CollectScans(*c, out);
  if (p.kind() == nexus::OpKind::kIterate) {
    const auto& it = p.As<nexus::IterateOp>();
    if (it.body) CollectScans(*it.body, out);
    if (it.measure) CollectScans(*it.measure, out);
  }
}

template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    nexus::WallTimer t;
    f();
    ms.push_back(t.ElapsedMillis());
  }
  return Quantile(ms, 0.5);
}

}  // namespace

void ProbeTemplates(Workload& w, std::vector<Metric>* out) {
  nexus::FederatedCatalog fed(&w.cluster());
  std::vector<double> optimize_ms, q_errors, parse_ms;
  double enc_bytes = 0.0, enc_s = 0.0, dec_s = 0.0;
  auto codec = [&](const Dataset& d) {
    std::string wire;
    nexus::WallTimer te;
    wire = nexus::SerializeDatasetWire(d, nexus::WireFormat::kBinary);
    enc_s += te.ElapsedSeconds();
    nexus::WallTimer td;
    auto back = nexus::ParseDatasetWire(wire);
    dec_s += td.ElapsedSeconds();
    if (back.ok()) enc_bytes += static_cast<double>(wire.size());
  };
  std::set<std::string> coded_inputs;
  for (const Template& t : w.templates()) {
    nexus::OptimizerStats stats;
    optimize_ms.push_back(MedianMs(5, [&] {
      stats = nexus::OptimizerStats{};
      (void)nexus::Optimize(t.plan, fed, {}, &stats);
    }));
    if (stats.estimated_rows_root >= 0 && t.expected) {
      double est = std::max<double>(1.0, static_cast<double>(stats.estimated_rows_root));
      double act = std::max<double>(1.0, static_cast<double>(t.expected->num_rows()));
      q_errors.push_back(std::max(est / act, act / est));
    }
    std::string wire = nexus::SerializePlanWire(*t.plan, nexus::WireFormat::kBinary);
    parse_ms.push_back(MedianMs(5, [&] { (void)nexus::ParsePlan(wire); }));

    if (t.expected) codec(Dataset(t.expected));
    // The largest input the template scans stands in for its largest
    // intermediate: it is what the first fragment boundary ships.
    std::set<std::string> scans;
    CollectScans(*t.plan, &scans);
    std::string largest;
    int64_t largest_bytes = -1;
    Dataset largest_data;
    for (const std::string& name : scans) {
      auto holders = w.cluster().HoldersOf(name);
      if (holders.empty()) continue;
      auto d = w.cluster().provider(holders.front())->catalog()->Get(name);
      if (d.ok() && d.ValueOrDie().ByteSize() > largest_bytes) {
        largest = name;
        largest_bytes = d.ValueOrDie().ByteSize();
        largest_data = d.ValueOrDie();
      }
    }
    if (!largest.empty() && coded_inputs.insert(largest).second) {
      codec(largest_data);
    }
  }
  double q_err = q_errors.empty() ? 0.0 : Quantile(q_errors, 0.5);
  out->push_back({"optimizer.optimize_ms", Quantile(optimize_ms, 0.5), "ms"});
  out->push_back({"optimizer.root_q_error", q_err, "ratio"});
  out->push_back({"core.encode_mb_s", enc_s > 0 ? enc_bytes / 1e6 / enc_s : 0.0,
                  "MB/s"});
  out->push_back({"core.decode_mb_s", dec_s > 0 ? enc_bytes / 1e6 / dec_s : 0.0,
                  "MB/s"});
  out->push_back({"core.plan_parse_ms", Quantile(parse_ms, 0.5), "ms"});
}

}  // namespace nexbench
