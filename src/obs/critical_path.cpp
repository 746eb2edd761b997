#include "obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/stats.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace apio::obs::trace {

namespace {

/// Only called with a non-empty sample: every map entry has one value.
Percentiles percentiles_of(const std::vector<double>& samples) {
  Percentiles p;
  p.count = samples.size();
  p.p50 = percentile(samples, 50.0);
  p.p95 = percentile(samples, 95.0);
  p.p99 = percentile(samples, 99.0);
  return p;
}

/// Decomposes one trace into per-phase self times.  Spans whose parent
/// is missing (sampling drop, late arrival) attach to the root so their
/// time is still attributed.
PhaseBreakdown decompose(const CompletedTrace& trace) {
  PhaseBreakdown b;
  b.trace = &trace;

  // children duration per span id (root included).
  std::map<std::uint64_t, double> child_total;
  std::map<std::uint64_t, bool> known;
  known[trace.root_span_id] = true;
  for (const auto& s : trace.spans) known[s.span_id] = true;
  for (const auto& s : trace.spans) {
    const std::uint64_t parent =
        known.count(s.parent_span_id) > 0 ? s.parent_span_id
                                          : trace.root_span_id;
    child_total[parent] += s.duration_seconds;
  }
  for (const auto& s : trace.spans) {
    const double self =
        std::max(0.0, s.duration_seconds - child_total[s.span_id]);
    b.phase_seconds[static_cast<std::size_t>(s.phase)] += self;
  }
  const double root_self =
      std::max(0.0, trace.duration_seconds - child_total[trace.root_span_id]);
  b.phase_seconds[static_cast<std::size_t>(Phase::kOther)] += root_self;
  return b;
}

}  // namespace

double PhaseBreakdown::phase_total() const {
  double total = 0.0;
  for (double s : phase_seconds) total += s;
  return total;
}

CriticalPathAnalyzer::CriticalPathAnalyzer(std::vector<CompletedTrace> traces)
    : traces_(std::move(traces)) {
  breakdowns_.reserve(traces_.size());
  std::vector<double> durations;
  durations.reserve(traces_.size());
  for (const auto& t : traces_) {
    breakdowns_.push_back(decompose(t));
    durations.push_back(t.duration_seconds);
  }
  if (!durations.empty()) median_duration_ = median(durations);
}

std::map<Phase, Percentiles> CriticalPathAnalyzer::phase_percentiles() const {
  std::map<Phase, std::vector<double>> samples;
  for (const auto& b : breakdowns_) {
    for (int p = 0; p < kPhaseCount; ++p) {
      const double s = b.phase_seconds[static_cast<std::size_t>(p)];
      if (s > 0.0) samples[static_cast<Phase>(p)].push_back(s);
    }
  }
  std::map<Phase, Percentiles> out;
  for (auto& [phase, values] : samples) {
    out.emplace(phase, percentiles_of(values));
  }
  return out;
}

std::map<std::string, Percentiles> CriticalPathAnalyzer::tenant_percentiles()
    const {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& b : breakdowns_) {
    samples[b.trace->tenant.empty() ? "(none)" : b.trace->tenant].push_back(
        b.trace->duration_seconds);
  }
  std::map<std::string, Percentiles> out;
  for (auto& [tenant, values] : samples) {
    out.emplace(tenant, percentiles_of(values));
  }
  return out;
}

std::vector<Straggler> CriticalPathAnalyzer::stragglers(
    double threshold) const {
  std::vector<Straggler> out;
  if (median_duration_ <= 0.0 || threshold <= 0.0) return out;

  // Per-phase medians: the baseline a straggler's phases are compared
  // against to find which one blew up.
  std::array<double, kPhaseCount> phase_median{};
  {
    std::array<std::vector<double>, kPhaseCount> samples;
    for (const auto& b : breakdowns_) {
      for (int p = 0; p < kPhaseCount; ++p) {
        samples[static_cast<std::size_t>(p)].push_back(
            b.phase_seconds[static_cast<std::size_t>(p)]);
      }
    }
    // A positive median duration implies at least one trace, so no
    // phase's sample is empty here.
    for (int p = 0; p < kPhaseCount; ++p) {
      phase_median[static_cast<std::size_t>(p)] =
          median(samples[static_cast<std::size_t>(p)]);
    }
  }

  for (const auto& b : breakdowns_) {
    const double duration = b.trace->duration_seconds;
    if (duration <= threshold * median_duration_) continue;
    Straggler s;
    s.trace = b.trace;
    s.factor = duration / median_duration_;
    for (int p = 0; p < kPhaseCount; ++p) {
      const double excess = b.phase_seconds[static_cast<std::size_t>(p)] -
                            phase_median[static_cast<std::size_t>(p)];
      if (excess > s.dominant_excess_seconds) {
        s.dominant_excess_seconds = excess;
        s.dominant = static_cast<Phase>(p);
      }
    }
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const Straggler& a, const Straggler& b) {
    return a.trace->duration_seconds > b.trace->duration_seconds;
  });
  return out;
}

std::string CriticalPathAnalyzer::flame(const CompletedTrace& trace) {
  std::ostringstream os;
  os << "trace " << trace.trace_id << " " << to_string(trace.op) << " "
     << format_bytes(trace.bytes);
  if (!trace.tenant.empty()) os << " tenant=" << trace.tenant;
  if (trace.failed) os << " FAILED";
  os << " " << format_seconds(trace.duration_seconds) << '\n';

  // Children by parent, in start order.
  std::map<std::uint64_t, std::vector<const TraceSpan*>> children;
  std::map<std::uint64_t, bool> known;
  known[trace.root_span_id] = true;
  for (const auto& s : trace.spans) known[s.span_id] = true;
  for (const auto& s : trace.spans) {
    const std::uint64_t parent =
        known.count(s.parent_span_id) > 0 ? s.parent_span_id
                                          : trace.root_span_id;
    children[parent].push_back(&s);
  }
  for (auto& [id, list] : children) {
    std::stable_sort(list.begin(), list.end(),
                     [](const TraceSpan* a, const TraceSpan* b) {
                       return a->start_seconds < b->start_seconds;
                     });
  }

  // Depth-first render, offsets relative to the root start.
  struct Frame {
    std::uint64_t span = 0;
    int depth = 0;
  };
  std::vector<Frame> stack;
  auto push_children = [&](std::uint64_t span, int depth) {
    auto it = children.find(span);
    if (it == children.end()) return;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      stack.push_back({(*rit)->span_id, depth});
    }
  };
  std::map<std::uint64_t, const TraceSpan*> by_id;
  for (const auto& s : trace.spans) by_id[s.span_id] = &s;
  push_children(trace.root_span_id, 1);
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const TraceSpan* s = by_id[f.span];
    os << std::string(static_cast<std::size_t>(f.depth) * 2, ' ') << "+"
       << format_seconds(s->start_seconds - trace.start_seconds) << " "
       << phase_name(s->phase);
    if (!s->detail.empty()) os << " [" << s->detail << "]";
    if (s->bytes > 0) os << " " << format_bytes(s->bytes);
    os << " " << format_seconds(s->duration_seconds) << '\n';
    push_children(f.span, f.depth + 1);
  }
  return os.str();
}

std::string CriticalPathAnalyzer::report(double straggler_threshold,
                                         std::size_t flames) const {
  std::ostringstream os;
  os << "critical path: " << breakdowns_.size() << " traced request(s), "
     << "median " << format_seconds(median_duration_) << '\n';
  if (breakdowns_.empty()) return os.str();

  os << "  per-phase self time (p50 / p95 / p99 across requests):\n";
  for (const auto& [phase, p] : phase_percentiles()) {
    os << "    " << phase_name(phase) << ": " << format_seconds(p.p50) << " / "
       << format_seconds(p.p95) << " / " << format_seconds(p.p99) << "  (n="
       << p.count << ")\n";
  }
  os << "  per-tenant request wall time (p50 / p95 / p99):\n";
  for (const auto& [tenant, p] : tenant_percentiles()) {
    os << "    " << tenant << ": " << format_seconds(p.p50) << " / "
       << format_seconds(p.p95) << " / " << format_seconds(p.p99) << "  (n="
       << p.count << ")\n";
  }

  const auto slow = stragglers(straggler_threshold);
  if (!slow.empty()) {
    os << "  stragglers (> " << straggler_threshold << "x median):\n";
    for (const auto& s : slow) {
      os << "    trace " << s.trace->trace_id << " "
         << format_seconds(s.trace->duration_seconds)
         << " (" << static_cast<int>(std::lround(s.factor)) << "x median), "
         << "blown phase: " << phase_name(s.dominant) << " (+"
         << format_seconds(s.dominant_excess_seconds) << ")";
      if (!s.trace->tenant.empty()) os << " tenant=" << s.trace->tenant;
      os << '\n';
    }
  }

  if (flames > 0) {
    std::vector<const CompletedTrace*> slowest;
    slowest.reserve(traces_.size());
    for (const auto& t : traces_) slowest.push_back(&t);
    std::sort(slowest.begin(), slowest.end(),
              [](const CompletedTrace* a, const CompletedTrace* b) {
                return a->duration_seconds > b->duration_seconds;
              });
    os << "  slowest request flame(s):\n";
    for (std::size_t i = 0; i < std::min(flames, slowest.size()); ++i) {
      std::istringstream lines(flame(*slowest[i]));
      std::string line;
      while (std::getline(lines, line)) os << "    " << line << '\n';
    }
  }
  return os.str();
}

std::string CriticalPathAnalyzer::to_json(double straggler_threshold) const {
  std::ostringstream os;
  os.precision(9);
  os << "{\"requests\":" << breakdowns_.size()
     << ",\"median_seconds\":" << median_duration_ << ",\"phases\":{";
  bool first = true;
  for (const auto& [phase, p] : phase_percentiles()) {
    os << (first ? "" : ",") << "\"" << phase_name(phase)
       << "\":{\"count\":" << p.count << ",\"p50\":" << p.p50
       << ",\"p95\":" << p.p95 << ",\"p99\":" << p.p99 << "}";
    first = false;
  }
  os << "},\"tenants\":{";
  first = true;
  for (const auto& [tenant, p] : tenant_percentiles()) {
    os << (first ? "" : ",") << "\"" << json_escape(tenant)
       << "\":{\"count\":" << p.count << ",\"p50\":" << p.p50
       << ",\"p95\":" << p.p95 << ",\"p99\":" << p.p99 << "}";
    first = false;
  }
  os << "},\"stragglers\":[";
  first = true;
  for (const auto& s : stragglers(straggler_threshold)) {
    os << (first ? "" : ",") << "{\"trace_id\":" << s.trace->trace_id
       << ",\"seconds\":" << s.trace->duration_seconds << ",\"factor\":" << s.factor
       << ",\"phase\":\"" << phase_name(s.dominant) << "\"}";
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace apio::obs::trace
