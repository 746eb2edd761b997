// Live telemetry export: a background thread that periodically
// serializes the metrics registry plus trace-collector watermarks to
// Prometheus text format, and completed traces to JSONL.
//
// Lifecycle: construct with options, start(), do work, stop().  stop()
// performs one final flush so short runs still export; the destructor
// stops too, so scope-bound usage is safe.  The exporter reads the
// completed-trace ring non-destructively (completed_since cursor) — a
// final TraceCollector::drain() for end-of-run analysis still sees
// every trace that fit in the ring.
//
// Memory stays bounded by construction: the registry is fixed-size, the
// trace ring has a capacity, and the exporter holds only a cursor.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace apio::obs::trace {

struct TelemetryOptions {
  /// Seconds between flushes.
  double interval_seconds = 1.0;
  /// Prometheus text-format snapshot path (rewritten atomically-ish by
  /// truncate each flush); empty = no Prometheus export.
  std::string prom_path;
  /// JSONL stream path (appended: one line per newly completed trace,
  /// plus one watermark line per flush); empty = no JSONL export.
  std::string jsonl_path;
};

/// Renders a registry snapshot + trace watermark as Prometheus text
/// format (metric names get an `apio_` prefix, dots become
/// underscores; histograms export as summaries with p50/p95/p99
/// quantile lines).  Exposed for tests and one-shot tool export.
std::string to_prometheus(const RegistrySnapshot& snapshot,
                          const TraceCollector::Watermark& watermark);

/// One completed trace as a single JSON line (no trailing newline).
std::string trace_to_json(const CompletedTrace& trace);

/// Chrome trace_event JSON ({"traceEvents":[...]}, load it in
/// chrome://tracing or Perfetto) of every recorded phase span: one
/// complete ("X") event per span, ts/dur in microseconds from the
/// earliest span.  Lanes: rank threads on tid 1000+rank, execution
/// streams on 2000+stream, other threads on 0.
std::string to_chrome_json(const std::vector<CompletedTrace>& traces);

class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryOptions options);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Launches the background flusher; idempotent.
  void start();

  /// Stops the flusher after one final flush; idempotent.
  void stop();

  /// Performs one synchronous flush on the calling thread (also used by
  /// tools that want a final snapshot without the thread).
  void flush();

  /// Flushes performed so far (including the final one).
  [[nodiscard]] std::uint64_t flush_count() const;

 private:
  void run();

  TelemetryOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::uint64_t trace_cursor_ = 0;
  std::uint64_t flush_count_ = 0;
  std::thread thread_;
};

}  // namespace apio::obs::trace
