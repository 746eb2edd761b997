#include "obs/epoch_analyzer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "common/units.h"
#include "obs/metrics.h"

namespace apio::obs {

namespace {

// Process-wide epoch-marker sink list.  Marker emission happens at
// epoch granularity (milliseconds to minutes apart), so one mutex plus
// an atomic emptiness probe mirrors CompositeObserver's design.
std::mutex g_sinks_mutex;
std::vector<EpochSink*> g_sinks;
std::atomic<std::size_t> g_sink_count{0};

int clamp_rank(int rank) { return rank < 0 ? 0 : rank; }

}  // namespace

const char* to_string(EpochEvent::Kind kind) {
  switch (kind) {
    case EpochEvent::Kind::kBegin: return "begin";
    case EpochEvent::Kind::kComputeStart: return "compute_start";
    case EpochEvent::Kind::kComputeDone: return "compute_done";
    case EpochEvent::Kind::kEnd: return "end";
  }
  return "?";
}

void add_epoch_sink(EpochSink* sink) {
  if (sink == nullptr) return;
  std::lock_guard lock(g_sinks_mutex);
  if (std::find(g_sinks.begin(), g_sinks.end(), sink) == g_sinks.end()) {
    g_sinks.push_back(sink);
  }
  g_sink_count.store(g_sinks.size(), std::memory_order_relaxed);
}

void remove_epoch_sink(EpochSink* sink) {
  std::lock_guard lock(g_sinks_mutex);
  g_sinks.erase(std::remove(g_sinks.begin(), g_sinks.end(), sink),
                g_sinks.end());
  g_sink_count.store(g_sinks.size(), std::memory_order_relaxed);
}

bool epoch_sinks_active() {
  return g_sink_count.load(std::memory_order_relaxed) > 0;
}

void emit_epoch_event(const EpochEvent& event) {
  // Sinks' on_epoch_event take only their own leaf locks and never
  // re-enter the sink list, so holding the guard across the fan-out is
  // cycle-free (same argument as CompositeObserver::on_io).
  std::lock_guard lock(g_sinks_mutex);
  for (EpochSink* sink : g_sinks) sink->on_epoch_event(event);
}

// ---------------------------------------------------------------------------
// EpochScope

EpochScope::EpochScope(std::int64_t epoch, int rank)
    : active_(epoch_sinks_active()),
      epoch_(epoch),
      rank_(clamp_rank(rank < 0 ? thread_rank() : rank)) {
  if (!active_) return;
  emit_epoch_event({EpochEvent::Kind::kBegin, epoch_, rank_, steady_seconds()});
}

EpochScope::~EpochScope() { end(); }

void EpochScope::compute_start() {
  if (!active_) return;
  emit_epoch_event(
      {EpochEvent::Kind::kComputeStart, epoch_, rank_, steady_seconds()});
}

void EpochScope::compute_done() {
  if (!active_) return;
  emit_epoch_event(
      {EpochEvent::Kind::kComputeDone, epoch_, rank_, steady_seconds()});
}

void EpochScope::end() {
  if (!active_) return;
  active_ = false;
  emit_epoch_event({EpochEvent::Kind::kEnd, epoch_, rank_, steady_seconds()});
}

// ---------------------------------------------------------------------------
// EpochAnalyzer

/// Per-(epoch, rank) accumulation state.  Marker timestamps use -1 as
/// "never seen"; steady-clock values are always >= 0.
struct EpochAnalyzer::RankEpoch {
  double begin = -1.0;
  double compute_start = -1.0;
  double compute_done = -1.0;
  double end = -1.0;
  bool ended = false;
  double first_issue = -1.0;
  double last_activity = 0.0;  ///< provisional end for unterminated epochs
  double t_transact = 0.0;
  double t_io_sync = 0.0;
  /// Async background-activity windows [issue + blocking, issue +
  /// completion]; their union length is the async t_io estimate.
  std::vector<std::pair<double, double>> bg_windows;
  int async_ops = 0;
  int cache_hits = 0;
  std::uint64_t bytes = 0;
  std::vector<EpochIoSpan> io;
};

/// Resolves one rank-epoch into EpochRankStats.  The compute phase is
/// [compute_start | begin, compute_done | first I/O issue | end]; an
/// unterminated epoch borrows its latest activity as a provisional end.
EpochRankStats EpochAnalyzer::resolve(int rank, const RankEpoch& re) {
  EpochRankStats stats;
  stats.rank = rank;
  stats.begin_seconds = re.begin >= 0.0 ? re.begin : re.last_activity;
  stats.ended = re.ended;
  stats.end_seconds =
      re.ended ? re.end : std::max(re.last_activity, stats.begin_seconds);

  const double cs = re.compute_start >= 0.0 ? re.compute_start : stats.begin_seconds;
  double cd = re.compute_done;
  if (cd < 0.0) cd = re.first_issue;
  if (cd < 0.0) cd = stats.end_seconds;
  stats.compute_start_seconds = cs;
  stats.compute_done_seconds = std::max(cs, cd);
  stats.t_comp = std::max(0.0, cd - cs);

  // Async t_io: union length of the background-activity windows.  The
  // per-record (completion - blocking) duration includes time spent
  // queued behind sibling operations of the same epoch on the serialized
  // background stream, so summing it would multiply-count service time;
  // the interval union counts each background busy second once.
  double t_io_async = 0.0;
  if (!re.bg_windows.empty()) {
    auto windows = re.bg_windows;
    std::sort(windows.begin(), windows.end());
    double lo = windows.front().first;
    double hi = windows.front().second;
    for (const auto& [start, stop] : windows) {
      if (start > hi) {
        t_io_async += hi - lo;
        lo = start;
        hi = stop;
      } else {
        hi = std::max(hi, stop);
      }
    }
    t_io_async += hi - lo;
  }
  stats.t_io = re.t_io_sync + t_io_async;
  stats.t_transact = re.t_transact;
  stats.ops = static_cast<int>(re.io.size());
  stats.async_ops = re.async_ops;
  stats.cache_hits = re.cache_hits;
  stats.bytes = re.bytes;
  stats.io = re.io;
  return stats;
}

namespace {

model::EpochCosts rank_costs(const EpochRankStats& stats) {
  return {stats.t_comp, stats.t_io, stats.t_transact};
}

}  // namespace

EpochAnalyzer::EpochAnalyzer(Options options) : options_(options) {}

EpochAnalyzer::~EpochAnalyzer() { detach(); }

void EpochAnalyzer::attach() {
  {
    std::lock_guard lock(mutex_);
    if (attached_) return;
    attached_ = true;
  }
  add_epoch_sink(this);
}

void EpochAnalyzer::detach() {
  {
    std::lock_guard lock(mutex_);
    if (!attached_) return;
    attached_ = false;
  }
  remove_epoch_sink(this);
}

EpochAnalyzer::RankEpoch* EpochAnalyzer::find_rank_epoch_locked(
    int rank, double issue_time) {
  // The common case is the rank's currently open epoch; fall back to a
  // window scan so records completing after scope end still attribute.
  RankEpoch* open = nullptr;
  for (auto& [key, re] : epochs_) {
    if (key.second != rank || re.begin < 0.0 || issue_time < re.begin) continue;
    if (re.ended) {
      if (issue_time < re.end) return &re;
    } else {
      // Open epoch: the latest one whose begin precedes the issue.
      if (open == nullptr || re.begin > open->begin) open = &re;
    }
  }
  return open;
}

void EpochAnalyzer::on_io(const IoRecord& record) {
  std::lock_guard lock(mutex_);
  RankEpoch* re = find_rank_epoch_locked(clamp_rank(record.origin_rank),
                                         record.issue_time);
  if (re == nullptr) {
    ++orphans_;
    return;
  }
  EpochIoSpan span;
  span.op = record.op;
  span.issue_seconds = record.issue_time;
  span.blocking_seconds = record.blocking_seconds;
  span.completion_seconds = record.completion_seconds;
  span.bytes = record.bytes;
  span.async = record.async;
  span.cache_hit = record.cache_hit;
  re->io.push_back(span);

  if (re->first_issue < 0.0 || record.issue_time < re->first_issue) {
    re->first_issue = record.issue_time;
  }
  re->last_activity =
      std::max(re->last_activity, record.issue_time + record.completion_seconds);
  re->bytes += record.bytes;
  if (record.cache_hit) ++re->cache_hits;
  if (record.async) {
    ++re->async_ops;
    // Async split: the caller-blocking part is the staging copy
    // (transactional overhead); the rest of the completion window is
    // background-transfer activity, i.e. the epoch model's t_io.
    re->t_transact += record.blocking_seconds;
    if (record.completion_seconds > record.blocking_seconds) {
      re->bg_windows.emplace_back(
          record.issue_time + record.blocking_seconds,
          record.issue_time + record.completion_seconds);
    }
  } else {
    // Sync I/O blocks for the full transfer.
    re->t_io_sync += record.blocking_seconds;
  }
}

void EpochAnalyzer::on_epoch_event(const EpochEvent& event) {
  std::lock_guard lock(mutex_);
  RankEpoch& re = epochs_[{event.epoch, clamp_rank(event.rank)}];
  re.last_activity = std::max(re.last_activity, event.time_seconds);
  switch (event.kind) {
    case EpochEvent::Kind::kBegin:
      re.begin = event.time_seconds;
      break;
    case EpochEvent::Kind::kComputeStart:
      re.compute_start = event.time_seconds;
      break;
    case EpochEvent::Kind::kComputeDone:
      re.compute_done = event.time_seconds;
      break;
    case EpochEvent::Kind::kEnd:
      re.end = event.time_seconds;
      re.ended = true;
      finalize_rank_epoch_locked(event);
      break;
  }
}

void EpochAnalyzer::finalize_rank_epoch_locked(const EpochEvent& event) {
  // Live drift check at scope end: compare this rank's predicted and
  // observed epoch duration with whatever records have arrived so far.
  // (Async completions landing after the scope closes are still folded
  // into report(); the live check trades completeness for immediacy.)
  if (options_.drift_alert_threshold <= 0.0) return;
  const auto it = epochs_.find({event.epoch, clamp_rank(event.rank)});
  if (it == epochs_.end() || it->second.io.empty()) return;
  const EpochRankStats stats = resolve(event.rank, it->second);
  const double observed = stats.observed_seconds();
  if (observed <= 0.0) return;
  const double predicted = model::epoch_seconds(
      rank_costs(stats), it->second.async_ops > 0 ? model::IoMode::kAsync
                                                  : model::IoMode::kSync);
  const double error = std::abs(predicted - observed) / observed;
  if (error <= options_.drift_alert_threshold) return;
  ++alerts_;
  if (enabled()) {
    static auto& counter = Registry::instance().counter("obs.epoch.drift_alerts");
    counter.increment();
  }
}

double EpochStats::relative_error() const {
  if (observed_seconds <= 0.0) return 0.0;
  return std::abs(predicted_seconds - observed_seconds) / observed_seconds;
}

EpochReport EpochAnalyzer::report() const {
  std::lock_guard lock(mutex_);
  EpochReport report;
  report.orphan_records = orphans_;
  report.drift_alerts = alerts_;

  // Group per-rank reconstructions by epoch (the map is ordered by
  // (epoch, rank), so each group is contiguous).
  for (auto it = epochs_.begin(); it != epochs_.end();) {
    const std::int64_t epoch = it->first.first;
    EpochStats stats;
    stats.epoch = epoch;
    bool any_async = false;
    double min_begin = 0.0;
    double max_end = 0.0;
    for (; it != epochs_.end() && it->first.first == epoch; ++it) {
      EpochRankStats rank_stats = resolve(it->first.second, it->second);
      any_async = any_async || it->second.async_ops > 0;
      stats.unterminated = stats.unterminated || !rank_stats.ended;
      // Eq. 3: the slowest rank determines each phase's duration.
      stats.costs.t_comp = std::max(stats.costs.t_comp, rank_stats.t_comp);
      stats.costs.t_io = std::max(stats.costs.t_io, rank_stats.t_io);
      stats.costs.t_transact =
          std::max(stats.costs.t_transact, rank_stats.t_transact);
      if (stats.ranks == 0) {
        min_begin = rank_stats.begin_seconds;
        max_end = rank_stats.end_seconds;
      } else {
        min_begin = std::min(min_begin, rank_stats.begin_seconds);
        max_end = std::max(max_end, rank_stats.end_seconds);
      }
      ++stats.ranks;
      stats.ops += rank_stats.ops;
      stats.bytes += rank_stats.bytes;
      stats.per_rank.push_back(std::move(rank_stats));
    }
    stats.mode = any_async ? model::IoMode::kAsync : model::IoMode::kSync;
    stats.observed_seconds = std::max(0.0, max_end - min_begin);
    stats.predicted_seconds = model::epoch_seconds(stats.costs, stats.mode);
    stats.scenario = model::classify_overlap(stats.costs);
    if (any_async && stats.costs.t_io > 0.0) {
      const double exposed =
          std::max(0.0, stats.observed_seconds - stats.costs.t_comp -
                            stats.costs.t_transact);
      const double hidden =
          std::clamp(stats.costs.t_io - exposed, 0.0, stats.costs.t_io);
      stats.overlap_efficiency = hidden / stats.costs.t_io;
    }
    report.epochs.push_back(std::move(stats));
  }

  // Drift aggregates over terminated epochs (Eq. 1 cumulative view).
  int counted = 0;
  for (const auto& e : report.epochs) {
    if (e.unterminated) continue;
    const double err = e.relative_error();
    report.mean_relative_error += err;
    if (err >= report.worst_relative_error) {
      report.worst_relative_error = err;
      report.worst_epoch = e.epoch;
    }
    report.observed_app_seconds += e.observed_seconds;
    report.predicted_app_seconds += e.predicted_seconds;
    ++counted;
  }
  if (counted > 0) report.mean_relative_error /= counted;
  if (report.observed_app_seconds > 0.0) {
    report.cumulative_relative_error =
        std::abs(report.predicted_app_seconds - report.observed_app_seconds) /
        report.observed_app_seconds;
  }
  return report;
}

std::size_t EpochAnalyzer::drift_alerts() const {
  std::lock_guard lock(mutex_);
  return alerts_;
}

void EpochAnalyzer::reset() {
  std::lock_guard lock(mutex_);
  epochs_.clear();
  orphans_ = 0;
  alerts_ = 0;
}

// ---------------------------------------------------------------------------
// EpochReport rendering

std::string EpochReport::table() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line,
                "%6s %5s %5s %4s %10s | %9s %9s %10s | %9s %9s %6s | %-8s %7s\n",
                "epoch", "ranks", "mode", "ops", "bytes", "t_comp", "t_io",
                "t_transact", "observed", "predicted", "err%", "scenario",
                "overlap");
  os << line;
  for (const auto& e : epochs) {
    std::snprintf(
        line, sizeof line,
        "%6lld %5d %5s %4d %10s | %9.4f %9.4f %10.4f | %9.4f %9.4f %5.1f%% | "
        "%-8s %6.1f%%%s\n",
        static_cast<long long>(e.epoch), e.ranks,
        to_string(e.mode).c_str(), e.ops, format_bytes(e.bytes).c_str(),
        e.costs.t_comp, e.costs.t_io, e.costs.t_transact, e.observed_seconds,
        e.predicted_seconds, 100.0 * e.relative_error(),
        to_string(e.scenario).c_str(), 100.0 * e.overlap_efficiency,
        e.unterminated ? "  [unterminated]" : "");
    os << line;
  }
  return os.str();
}

std::string EpochReport::summary() const {
  std::ostringstream os;
  int terminated = 0;
  for (const auto& e : epochs) terminated += e.unterminated ? 0 : 1;
  os << "epoch drift summary: " << epochs.size() << " epochs ("
     << epochs.size() - static_cast<std::size_t>(terminated)
     << " unterminated), " << orphan_records << " orphan records, "
     << drift_alerts << " live drift alerts\n";
  if (terminated > 0) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  per-epoch relative error: mean %.1f%%, worst %.1f%% "
                  "(epoch %lld)\n",
                  100.0 * mean_relative_error, 100.0 * worst_relative_error,
                  static_cast<long long>(worst_epoch));
    os << line;
    std::snprintf(line, sizeof line,
                  "  cumulative Eq. 1 application time: observed %.4f s, "
                  "predicted %.4f s (error %.1f%%)\n",
                  observed_app_seconds, predicted_app_seconds,
                  100.0 * cumulative_relative_error);
    os << line;
  }
  return os.str();
}

std::string EpochReport::to_chrome_json() const {
  // One lane pair per rank: even tids carry the epoch/compute phase
  // spans, odd tids the attributed I/O operations.  Timestamps rebase
  // against the earliest epoch begin so traces start near zero.
  double t0 = 0.0;
  bool have_t0 = false;
  for (const auto& e : epochs) {
    for (const auto& r : e.per_rank) {
      if (!have_t0 || r.begin_seconds < t0) {
        t0 = r.begin_seconds;
        have_t0 = true;
      }
    }
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const char* name, int tid, double start, double dur,
                  std::int64_t epoch, std::uint64_t bytes) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << name << "\",\"cat\":\"epoch\",\"ph\":\"X\","
       << "\"pid\":0,\"tid\":" << tid << ",\"ts\":" << (start - t0) * 1e6
       << ",\"dur\":" << dur * 1e6 << ",\"args\":{\"epoch\":" << epoch
       << ",\"bytes\":" << bytes << "}}";
  };

  std::map<int, bool> ranks_seen;
  for (const auto& e : epochs) {
    for (const auto& r : e.per_rank) {
      ranks_seen.emplace(r.rank, true);
      const std::string name = "epoch#" + std::to_string(e.epoch);
      emit(name.c_str(), r.rank * 2, r.begin_seconds,
           r.observed_seconds(), e.epoch, r.bytes);
      if (r.t_comp > 0.0) {
        emit("compute", r.rank * 2, r.compute_start_seconds, r.t_comp, e.epoch,
             0);
      }
      for (const auto& span : r.io) {
        emit(to_string(span.op), r.rank * 2 + 1, span.issue_seconds,
             span.async ? span.completion_seconds : span.blocking_seconds,
             e.epoch, span.bytes);
      }
    }
  }
  for (const auto& [rank, _] : ranks_seen) {
    os << (first ? "" : ",");
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << rank * 2 << ",\"args\":{\"name\":\"rank " << rank << " epochs\"}},"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << rank * 2 + 1 << ",\"args\":{\"name\":\"rank " << rank << " io\"}}";
  }
  os << "]}";
  return os.str();
}

}  // namespace apio::obs
