// I/O tracing: record the exact stream of dataset operations an
// application issues through a connector, persist it, summarise it, and
// replay it later against any connector.
//
// This is the "runtime tracking of I/O calls" the paper's methodology
// relies on (Sec. II-A), grown into a tool: capture a production run's
// I/O pattern once, then replay it through sync and async connectors —
// or feed its sizes to the simulator — to evaluate I/O modes without
// rerunning the application.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/debug/lock_rank.h"
#include "vol/passthrough_connector.h"

namespace apio::vol {

/// One recorded operation.  Kind is the unified op enum shared with the
/// IoRecord stream (obs::IoOp) — traces are just persisted projections
/// of that stream.
struct TraceEvent {
  using Kind = IoOp;

  Kind kind = Kind::kWrite;
  std::string dataset_path;  ///< empty for flush
  h5::Selection selection;   ///< meaningful for dataset ops
  std::uint64_t bytes = 0;
  /// Seconds since the trace's first operation at which the call was issued.
  double issue_time = 0.0;
  /// Caller-visible blocking duration of the call.
  double blocking_seconds = 0.0;
  /// Causal trace identity (obs::trace), carried through from the
  /// IoRecord stream; 0 when tracing was off when the op ran.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// An ordered trace with CSV persistence.
class Trace {
 public:
  void append(TraceEvent event);
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// CSV: kind,path,selection,bytes,issue_time,blocking,trace_id,span_id
  /// Selections serialise as "all" or "start0xstart1:count0xcount1".
  /// Paths containing commas, quotes or newlines are RFC4180-quoted
  /// (embedded quotes doubled); from_csv understands quoted fields and
  /// throws FormatError on unterminated quotes or malformed rows.
  /// Legacy 6-column rows (pre trace-id) parse with both ids zero;
  /// any other column count is malformed.
  std::string to_csv() const;
  static Trace from_csv(const std::string& csv);

 private:
  std::vector<TraceEvent> events_;
};

/// Connector interposer that records every operation it forwards.
///
/// Recording rides the unified observer stream: the recorder subscribes
/// a detail-requesting sink on the inner connector and converts each
/// IoRecord into a TraceEvent — there is no second, private record
/// path.  With an async inner connector records surface at completion
/// time, so call wait_all() before trace() to capture in-flight ops;
/// trace() sorts by issue time and rebases it to the first operation.
/// Every call forwards through the PassthroughConnector base, so
/// further subscribers land on the inner connector next to the sink.
class TraceRecorder final : public PassthroughConnector {
 public:
  explicit TraceRecorder(ConnectorPtr inner);
  ~TraceRecorder() override;

  /// Snapshot of everything recorded so far, ordered by issue time.
  Trace trace() const;

 private:
  class Sink;

  std::shared_ptr<Sink> sink_;
};

/// Replay options.
struct ReplayOptions {
  /// Reproduce inter-operation gaps (compute phases) scaled by this
  /// factor; 0 replays back-to-back.
  double time_scale = 0.0;
  /// Synthetic fill byte for replayed writes.
  std::uint8_t fill = 0xA5;
};

/// Statistics of one replay run.
struct ReplayResult {
  std::size_t operations = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  double total_seconds = 0.0;
  double blocking_seconds = 0.0;  ///< caller-visible I/O blocking
};

/// Replays `trace` against `connector`.  Datasets are resolved by path
/// in the connector's file and must exist with compatible extents
/// (replaying a write trace into a freshly created twin container is
/// the intended use; see examples/).
ReplayResult replay_trace(const Trace& trace, Connector& connector,
                          ReplayOptions options = {});

/// Darshan-style per-dataset profile derived from a trace.
struct DatasetProfile {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  double blocking_seconds = 0.0;
};

class IoProfile {
 public:
  explicit IoProfile(const Trace& trace);

  const std::map<std::string, DatasetProfile>& per_dataset() const { return per_dataset_; }
  /// Histogram of request sizes: bucket i counts requests in
  /// [2^i, 2^(i+1)) bytes; bucket 0 additionally holds zero-size ops.
  const std::vector<std::uint64_t>& size_histogram() const { return histogram_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::size_t total_operations() const { return total_ops_; }

  /// Multi-line human-readable report.
  std::string report() const;

 private:
  std::map<std::string, DatasetProfile> per_dataset_;
  std::vector<std::uint64_t> histogram_;
  std::uint64_t total_bytes_ = 0;
  std::size_t total_ops_ = 0;
};

}  // namespace apio::vol
