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
#include "vol/connector.h"

namespace apio::vol {

/// An ordered list of IoRecords with CSV persistence: a trace is a
/// persisted projection of the record stream, in issue order, with
/// issue_time relative to the trace's first operation.
class Trace {
 public:
  void append(IoRecord record);
  const std::vector<IoRecord>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// CSV: kind,path,selection,bytes,issue_time,blocking,trace_id,span_id
  /// where kind is the IoOp number and selection the selection token
  /// ("all" when empty).  Paths containing commas, quotes or newlines
  /// are RFC4180-quoted (embedded quotes doubled); from_csv understands
  /// quoted fields and throws FormatError on unterminated quotes,
  /// malformed rows or a malformed selection token; a row with any
  /// column count but 8 is malformed.  The other IoRecord fields are
  /// not persisted.
  std::string to_csv() const;
  static Trace from_csv(const std::string& csv);

 private:
  std::vector<IoRecord> events_;
};

/// Observer that records every operation a connector reports.
///
/// Attach it with connector->add_observer(recorder): it asks for the
/// detail strings (path, selection token) and keeps each IoRecord as
/// it arrives, so a trace is the unified record stream itself, not a
/// second record path.  With an async
/// connector records surface at completion time, so call wait_all()
/// before trace() to capture in-flight ops; trace() sorts by issue time
/// and rebases it to the first operation.
class TraceRecorder final : public IoObserver {
 public:
  bool wants_detail() const override { return true; }
  void on_io(const IoRecord& record) override;

  /// Snapshot of everything recorded so far, ordered by issue time.
  Trace trace() const;

 private:
  mutable debug::RankedMutex<debug::LockRank::kVolTrace> mutex_;
  std::vector<IoRecord> events_;
};

/// Replay options.
struct ReplayOptions {
  /// Reproduce inter-operation gaps (compute phases) scaled by this
  /// factor; 0 replays back-to-back.
  double time_scale = 0.0;
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
