#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

namespace apio::obs::trace {

namespace {

/// `sched.tenant.a.wait_seconds` -> `apio_sched_tenant_a_wait_seconds`.
std::string prom_name(const std::string& name) {
  std::string out = "apio_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Chrome lane of a span: rank threads on 1000+rank, stream workers on
/// 2000+stream, any other thread on lane 0.
int chrome_lane(const TraceSpan& span) {
  if (span.rank >= 0) return 1000 + span.rank;
  if (span.stream >= 0) return 2000 + span.stream;
  return 0;
}

}  // namespace

std::string to_prometheus(const RegistrySnapshot& snapshot,
                          const TraceCollector::Watermark& watermark) {
  std::ostringstream os;
  os.precision(9);
  for (const auto& [name, c] : snapshot.counters) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << c.total << "\n";
  }
  for (const auto& [name, g] : snapshot.gauges) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << g.value << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " summary\n";
    os << n << "{quantile=\"0.5\"} " << h.p50_seconds() << "\n";
    os << n << "{quantile=\"0.95\"} " << h.p95_seconds() << "\n";
    os << n << "{quantile=\"0.99\"} " << h.p99_seconds() << "\n";
    os << n << "_sum " << h.sum_seconds << "\n";
    os << n << "_count " << h.count << "\n";
  }
  os << "# TYPE apio_trace_started counter\n"
     << "apio_trace_started " << watermark.started << "\n"
     << "# TYPE apio_trace_sampled counter\n"
     << "apio_trace_sampled " << watermark.sampled << "\n"
     << "# TYPE apio_trace_completed counter\n"
     << "apio_trace_completed " << watermark.completed << "\n"
     << "# TYPE apio_trace_evicted counter\n"
     << "apio_trace_evicted " << watermark.evicted << "\n"
     << "# TYPE apio_trace_dropped_spans counter\n"
     << "apio_trace_dropped_spans " << watermark.dropped_spans << "\n"
     << "# TYPE apio_trace_late_spans counter\n"
     << "apio_trace_late_spans " << watermark.late_spans << "\n"
     << "# TYPE apio_trace_active gauge\n"
     << "apio_trace_active " << watermark.active << "\n"
     << "# TYPE apio_trace_oldest_active_start_seconds gauge\n"
     << "apio_trace_oldest_active_start_seconds "
     << watermark.oldest_active_start << "\n";
  return os.str();
}

std::string trace_to_json(const CompletedTrace& trace) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"kind\":\"trace\",\"trace_id\":" << trace.trace_id
     << ",\"root_span_id\":" << trace.root_span_id;
  if (trace.parent_trace_id != 0) {
    os << ",\"parent_trace_id\":" << trace.parent_trace_id
       << ",\"parent_span_id\":" << trace.parent_span_id;
  }
  os << ",\"op\":\"" << to_string(trace.op) << "\",\"tenant\":\""
     << json_escape(trace.tenant) << "\",\"bytes\":" << trace.bytes
     << ",\"failed\":" << (trace.failed ? "true" : "false")
     << ",\"start\":" << trace.start_seconds
     << ",\"duration\":" << trace.duration_seconds << ",\"spans\":[";
  bool first = true;
  for (const auto& s : trace.spans) {
    os << (first ? "" : ",") << "{\"span_id\":" << s.span_id
       << ",\"parent\":" << s.parent_span_id << ",\"phase\":\""
       << phase_name(s.phase) << "\",\"start\":" << s.start_seconds
       << ",\"duration\":" << s.duration_seconds << ",\"bytes\":" << s.bytes
       << ",\"rank\":" << s.rank;
    if (!s.detail.empty()) os << ",\"detail\":\"" << json_escape(s.detail) << "\"";
    os << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string to_chrome_json(const std::vector<CompletedTrace>& traces) {
  // Timestamps count from the earliest recorded span, so the viewer
  // opens at the start of the run.
  double origin = std::numeric_limits<double>::infinity();
  for (const auto& t : traces) {
    for (const auto& s : t.spans) origin = std::min(origin, s.start_seconds);
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);  // microseconds to the ns
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& t : traces) {
    for (const auto& s : t.spans) {
      os << (first ? "" : ",") << "{\"name\":\"" << phase_name(s.phase)
         << "\",\"cat\":\"" << to_string(t.op)
         << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << chrome_lane(s)
         << ",\"ts\":" << (s.start_seconds - origin) * 1e6
         << ",\"dur\":" << s.duration_seconds * 1e6
         << ",\"args\":{\"trace_id\":" << t.trace_id << ",\"bytes\":" << s.bytes
         << ",\"rank\":" << s.rank << ",\"stream\":" << s.stream;
      if (!s.detail.empty()) os << ",\"detail\":\"" << json_escape(s.detail) << "\"";
      os << "}}";
      first = false;
    }
  }
  os << "]}";
  return os.str();
}

TelemetryExporter::TelemetryExporter(TelemetryOptions options)
    : options_(std::move(options)) {}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::start() {
  std::lock_guard lock(mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { run(); });
}

void TelemetryExporter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard lock(mutex_);
    running_ = false;
  }
  flush();  // final flush so short runs still export
}

void TelemetryExporter::flush() {
  const auto snapshot = Registry::instance().snapshot();
  auto& collector = TraceCollector::instance();
  const auto watermark = collector.watermark();

  std::uint64_t cursor = 0;
  {
    std::lock_guard lock(mutex_);
    cursor = trace_cursor_;
  }
  auto [fresh, next] = collector.completed_since(cursor);

  if (!options_.prom_path.empty()) {
    std::ofstream out(options_.prom_path, std::ios::trunc);
    if (out) out << to_prometheus(snapshot, watermark);
  }
  if (!options_.jsonl_path.empty()) {
    std::ofstream out(options_.jsonl_path, std::ios::app);
    if (out) {
      for (const auto& t : fresh) out << trace_to_json(t) << "\n";
      out << "{\"kind\":\"watermark\",\"started\":" << watermark.started
          << ",\"sampled\":" << watermark.sampled
          << ",\"completed\":" << watermark.completed
          << ",\"evicted\":" << watermark.evicted
          << ",\"dropped_spans\":" << watermark.dropped_spans
          << ",\"late_spans\":" << watermark.late_spans
          << ",\"active\":" << watermark.active << "}\n";
    }
  }

  std::lock_guard lock(mutex_);
  trace_cursor_ = next;
  ++flush_count_;
}

std::uint64_t TelemetryExporter::flush_count() const {
  std::lock_guard lock(mutex_);
  return flush_count_;
}

void TelemetryExporter::run() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds > 0.0 ? options_.interval_seconds : 1.0);
  while (true) {
    {
      std::unique_lock lock(mutex_);
      if (cv_.wait_for(lock, interval, [this] { return stopping_; })) return;
    }
    flush();
  }
}

}  // namespace apio::obs::trace
