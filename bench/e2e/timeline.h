// Bench-local span timeline for apio_e2e.
//
// The benchmark times every layer from outside: spans are opened around
// the connector calls the workload makes, around compute phases, and by
// probe backends around the storage calls the stack makes.  Spans land
// in one preallocated buffer (no allocation or lock while recording) and
// are written out as Chrome trace_event JSON when the run is over.
//
// A run is traced only when a SpanBuffer is active; otherwise every
// TimedSpan is a single null check.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace apio::e2e {

/// Steady-clock nanoseconds since the process anchor.
std::int64_t now_ns();

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Span names.  Structural spans (run, epoch, io) only group the work
/// spans below them; their self time is the application-thread time no
/// work span accounts for.
enum class SpanName : std::uint16_t {
  kRun,
  kEpoch,
  kIo,
  kCompute,
  kCheck,
  kVolWrite,
  kVolRead,
  kVolPrefetch,
  kVolWait,
  kVolOpen,
  kVolClose,
  kDrain,
  kTopRead,
  kTopWrite,
  kTopMeta,
  kLeafRead,
  kLeafWrite,
  kLeafMeta,
  kCount,
};

const char* span_label(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< slot of the enclosing span on this thread, 0 = none
  std::uint32_t op = 0;      ///< connector call sequence number, 0 = none
  SpanName name = SpanName::kRun;
  std::uint16_t thread = 0;
};

/// Small per-thread id; the first thread to ask gets 1.
std::uint16_t thread_tag();

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity);

  /// Opens a span on the calling thread; returns its slot (1-based), or
  /// 0 when the buffer is full (the span is then counted as dropped).
  std::uint32_t open(SpanName name, std::uint32_t op);
  void close(std::uint32_t slot);

  /// Recorded spans.  Read only after every recording thread has been
  /// joined.
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  std::vector<Span> spans_;
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The buffer spans record into, or null when the run is untraced.
/// Switched between runs, while no operation is in flight.
SpanBuffer* active_spans();
void set_active_spans(SpanBuffer* buffer);

/// RAII span on the active buffer; a no-op when none is active.
class TimedSpan {
 public:
  explicit TimedSpan(SpanName name, std::uint32_t op = 0);
  ~TimedSpan();
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t slot_ = 0;
};

/// Per-name totals: a span's self time is its duration minus the part
/// its child spans cover.
struct SelfTime {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct TimelineSummary {
  std::map<std::string, SelfTime> by_name;
  /// Per top-probe call: duration minus nested leaf-probe time (s).
  std::vector<double> stack_self_s;
  /// Connector call durations on the application thread (s).
  std::vector<double> call_s;
  double write_call_s = 0.0;   ///< sum over vol.write spans
  double leaf_busy_s = 0.0;    ///< sum over leaf-probe spans
  double leaf_data_s = 0.0;    ///< leaf-probe read/write spans only
  double run_s = 0.0;          ///< the run span
  double unattributed_s = 0.0; ///< self time of run/epoch/io spans
  /// Background threads: (sum of top-probe time, sum of leaf-probe time).
  std::map<std::uint16_t, std::pair<double, double>> stream_probe_s;
};

TimelineSummary summarize(const SpanBuffer& buffer, std::uint16_t app_thread);

/// Writes the spans as Chrome trace_event JSON ("X" events, times in
/// microseconds).  Returns false when the file cannot be written.
bool write_chrome_trace(const SpanBuffer& buffer, std::uint16_t app_thread,
                        const std::string& path);

}  // namespace apio::e2e
