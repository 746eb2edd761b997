// Critical-path attribution over completed request traces.
//
// A request's span tree (obs/trace_context.h) covers its wall time with
// nested phase spans.  The analyzer decomposes each request's duration
// into *self times*: a span's self time is its duration minus the
// duration of its direct children, and the root's self time is reported
// as the `other` phase.  By construction the per-phase self times of
// one request sum to its wall time exactly (up to clock-read jitter),
// which is what makes the decomposition trustworthy — no phase is
// double-counted, nothing is invisible.
//
// On top of the per-request breakdowns the analyzer reports p50/p95/p99
// per phase and per tenant, and flags stragglers: requests whose wall
// time exceeds k x the median, attributed to the phase that grew most
// relative to the per-phase median — "this request was 9x median and
// 80% of the excess is queue_wait" is the actionable form of the
// paper's where-does-async-time-go question.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_context.h"

namespace apio::obs::trace {

/// One request's wall time decomposed into phase self-times.
struct PhaseBreakdown {
  /// The decomposed request, owned by the analyzer.
  const CompletedTrace* trace = nullptr;
  /// Self time per phase (index by static_cast<int>(Phase)); the
  /// kOther slot holds the root's own self time.
  std::array<double, kPhaseCount> phase_seconds{};

  [[nodiscard]] double phase(Phase p) const {
    return phase_seconds[static_cast<std::size_t>(p)];
  }
  /// Sum of all phase self-times; equals the trace's duration_seconds
  /// up to clock-read jitter (clamped negatives).
  [[nodiscard]] double phase_total() const;
};

struct Percentiles {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One flagged straggler: a request whose wall time exceeded
/// k x median, with the phase that blew up.
struct Straggler {
  /// The slow request, owned by the analyzer.
  const CompletedTrace* trace = nullptr;
  double factor = 0.0;  ///< duration / median duration
  Phase dominant = Phase::kOther;  ///< phase with the largest excess
  double dominant_excess_seconds = 0.0;
};

/// Breakdowns and stragglers point into the analyzer's own traces, so
/// it is not copyable.
class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(std::vector<CompletedTrace> traces);
  CriticalPathAnalyzer(const CriticalPathAnalyzer&) = delete;
  CriticalPathAnalyzer& operator=(const CriticalPathAnalyzer&) = delete;

  [[nodiscard]] const std::vector<PhaseBreakdown>& breakdowns() const {
    return breakdowns_;
  }

  /// Percentiles of per-request self time for each phase that appeared.
  [[nodiscard]] std::map<Phase, Percentiles> phase_percentiles() const;

  /// Percentiles of request wall time per tenant.
  [[nodiscard]] std::map<std::string, Percentiles> tenant_percentiles() const;

  /// Requests with duration > threshold x median, worst first.
  [[nodiscard]] std::vector<Straggler> stragglers(double threshold) const;

  /// Human-readable report: phase table, per-tenant table, stragglers,
  /// and a per-request flame rendering of the `flames` slowest traces.
  [[nodiscard]] std::string report(double straggler_threshold = 3.0,
                                   std::size_t flames = 3) const;

  /// Machine-readable report (build/trace-report.json shape):
  /// {"requests":N,"median_seconds":...,"phases":{...},
  ///  "tenants":{...},"stragglers":[...]}.
  [[nodiscard]] std::string to_json(double straggler_threshold = 3.0) const;

  /// Indented span tree of one trace (the per-request flame report).
  [[nodiscard]] static std::string flame(const CompletedTrace& trace);

 private:
  std::vector<CompletedTrace> traces_;
  std::vector<PhaseBreakdown> breakdowns_;
  double median_duration_ = 0.0;
};

}  // namespace apio::obs::trace
