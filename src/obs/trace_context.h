// Causal request tracing: follow ONE I/O request through every layer.
//
// The metrics registry answers "how much, in aggregate"; it cannot
// answer the paper's per-request question — where did *this* write
// spend its time once it left the application?  obs::trace does, and
// its completed-trace ring is the one span stream every timeline view
// renders from (Chrome JSON, critical path, JSONL export).  Every
// request submitted through a VOL connector mints a TraceContext
// (trace id + root span id) that travels with the operation across threads —
// issuing rank -> connector FIFO queue -> retry attempts ->
// scheduler admission -> backend decorator stack — and every layer
// records phase-named child spans against it.  A completed request
// yields one span tree whose self-times decompose the request's wall
// time exactly (critical_path.h turns that into percentiles and
// straggler attribution).
//
// Propagation rules:
//   * the issuing thread binds the context with ScopedTraceContext for
//     the synchronous submit window (mirroring sched::ScopedSubmission);
//   * the background stream re-binds it around every attempt, exactly
//     where the submission identity is re-bound;
//   * layers that run on the bound thread open ScopedPhase spans (they
//     nest via a per-thread span stack);
//   * cross-thread gaps (FIFO wait, pool wait) and cross-rank work
//     (collective aggregation) are recorded with explicit
//     record_phase()/TraceCollector::record() against the context,
//     since no thread holds the binding while the request waits.
//
// Memory is bounded: sampling keeps 1-in-N requests (deterministic
// counter, not RNG, so runs are reproducible), spans per trace are
// capped, and completed traces live in a fixed-capacity ring.  Every
// instrumentation site starts with one relaxed atomic load, so
// compiled-in tracing costs a predictable branch when disabled (the
// fig_trace_overhead bench gates the enabled+sampled cost at <= 2%).
//
// NEVER record spans while holding a RankedMutex: the collector's own
// guard is a plain leaf mutex and recording from inside a ranked
// critical section would hide scheduler/pool time inside the span.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/record.h"

namespace apio::obs {
class Histogram;
}  // namespace apio::obs

namespace apio::obs::trace {

/// The documented phase vocabulary.  Every span names one of these —
/// the apio_lint `trace-phase` rule rejects ad-hoc strings, so
/// critical-path reports can never fragment across spellings.
enum class Phase : std::uint8_t {
  kSubmit = 0,   ///< synchronous submit window on the issuing thread
  kStageCopy,    ///< transactional staging copy (t_transact)
  kPoolWait,     ///< queue push -> background stream pickup (FIFO wait)
  kQueueWait,    ///< sched::FairScheduler submit -> grant
  kAdmission,    ///< channel grant held around the inner transfer
  kAttempt,      ///< a connector's one execution of an op on storage
  kBackoff,      ///< retry backoff delay
  kBackend,      ///< one storage::Backend decorator/leaf operation
  kCacheHit,     ///< read served from the burst-buffer staging area
  kCacheFlush,   ///< dirty-extent drain from the cache to the PFS tier
  kExchange,     ///< collective header/payload exchange (pmpi)
  kRemoteWrite,  ///< aggregator writing a contributor's bytes
  kComplete,     ///< completion bookkeeping before the eventual fires
  kOther,        ///< root self-time not covered by any child phase
};

inline constexpr int kPhaseCount = 14;

const char* phase_name(Phase phase);

/// The propagated identity of one traced request.  trace_id == 0 means
/// "untraced" (collector disabled); sampled == false means the request
/// counts in watermarks but records no spans.
struct TraceContext {
  std::uint64_t trace_id = 0;
  /// Root span of the request; child phases parent to it by default.
  std::uint64_t span_id = 0;
  bool sampled = false;

  [[nodiscard]] bool recording() const { return trace_id != 0 && sampled; }
};

/// One recorded phase span inside a trace.
struct TraceSpan {
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = child of the root span
  Phase phase = Phase::kOther;
  double start_seconds = 0.0;  ///< obs::steady_seconds() timebase
  double duration_seconds = 0.0;
  std::uint64_t bytes = 0;
  int rank = -1;       ///< pmpi rank of the recording thread
  int stream = -1;     ///< execution-stream id of the recording thread
  std::string detail;  ///< free-form annotation (backend name, attempt no.)
};

/// One finished request's full span tree plus its identity.
struct CompletedTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t root_span_id = 0;
  /// Causal link to the trace whose context was bound at mint time
  /// (e.g. a collective exchange spawning aggregated writes); 0 = none.
  std::uint64_t parent_trace_id = 0;
  std::uint64_t parent_span_id = 0;
  IoOp op = IoOp::kWrite;
  std::string tenant;
  std::uint64_t bytes = 0;
  bool failed = false;
  double start_seconds = 0.0;     ///< root span start
  double duration_seconds = 0.0;  ///< root span wall time
  std::vector<TraceSpan> spans;   ///< children only; the root is implicit
};

/// The calling thread's bound trace context; null when unbound or when
/// the bound request is untraced.
const TraceContext* current_trace();

/// RAII binding of a TraceContext to the current thread, next to (and
/// with the same nesting discipline as) sched::ScopedSubmission.  The
/// per-thread phase stack is swapped out for the binding's lifetime, so
/// an inner binding's spans can never parent to an outer binding's
/// open phases.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
  std::vector<std::uint64_t> previous_stack_;
};

/// Process-wide trace registry: active (in-flight) traces keyed by id,
/// plus a bounded ring of completed traces for export/analysis.
class TraceCollector {
 public:
  /// Spans kept per trace; further records are counted as dropped.
  static constexpr std::size_t kMaxSpansPerTrace = 512;

  static TraceCollector& instance();

  /// Master switch (relaxed atomic).  Disabled start_trace() mints
  /// nothing and every recording site short-circuits.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Deterministic 1-in-N sampling: every `period`-th minted trace
  /// records spans (period 1 = record everything).  Unsampled traces
  /// still count in the watermark.
  void set_sampling_period(std::uint64_t period);
  [[nodiscard]] std::uint64_t sampling_period() const;

  /// Test hook for the tracing-cost gate (bench/fig_trace_overhead): a
  /// busy-wait of this many microseconds is charged on every *enabled*
  /// start_trace(), modelling a tracing-path slowdown the gate must
  /// catch.  Seeded once from APIO_TRACE_INJECT_SPAN_DELAY_US when the
  /// singleton is first touched; the production value 0 costs a single
  /// relaxed load on the minting path and nothing when tracing is off.
  void set_injected_delay_us(std::uint64_t us);

  /// Completed-trace ring capacity; the oldest trace is evicted first.
  void set_capacity(std::size_t capacity);

  /// Mints a context for a new request.  If the calling thread already
  /// holds a recording context (e.g. an aggregator issuing writes from
  /// inside a collective trace), the new trace carries a causal parent
  /// link and inherits sampling, keeping cross-request chains whole.
  TraceContext start_trace();

  /// Fresh span id under `context`'s trace (0 when not recording).
  std::uint64_t new_span_id(const TraceContext& context);

  /// Appends one span to an active trace.  The trace_id form serves
  /// cross-rank recording (the id arrived over the wire); spans for
  /// unknown/already-completed traces are dropped and counted.
  void record(const TraceContext& context, TraceSpan span);
  void record(std::uint64_t trace_id, TraceSpan span);

  /// Seals an active trace and moves it into the completed ring.
  void complete(const TraceContext& context, IoOp op, std::string tenant,
                std::uint64_t bytes, bool failed, double start_seconds,
                double end_seconds);

  /// Removes and returns every completed trace (analysis at end of run).
  std::vector<CompletedTrace> drain();

  /// Copies completed traces with ring sequence > `cursor`, returning
  /// the new cursor — the non-destructive form the telemetry exporter
  /// polls so a later drain() still sees everything left in the ring.
  std::pair<std::vector<CompletedTrace>, std::uint64_t> completed_since(
      std::uint64_t cursor) const;

  /// Live counters for watermark export.
  struct Watermark {
    std::uint64_t started = 0;    ///< traces minted
    std::uint64_t sampled = 0;    ///< traces that recorded spans
    std::uint64_t completed = 0;  ///< traces sealed
    std::uint64_t evicted = 0;    ///< completed traces pushed out of the ring
    std::uint64_t dropped_spans = 0;  ///< spans over the per-trace cap
    std::uint64_t late_spans = 0;     ///< spans for unknown/sealed traces
    std::uint64_t active = 0;         ///< currently in-flight sampled traces
    /// Start time of the oldest in-flight trace (0 when none) — a
    /// stuck-request indicator.
    double oldest_active_start = 0.0;
  };
  [[nodiscard]] Watermark watermark() const;

  /// Drops all state (tests / tool re-runs).  Counters reset too.
  void clear();

 private:
  TraceCollector() = default;

  struct ActiveTrace {
    std::uint64_t root_span_id = 0;
    std::uint64_t parent_trace_id = 0;
    std::uint64_t parent_span_id = 0;
    double start_seconds = 0.0;
    std::vector<TraceSpan> spans;
  };

  void record_locked(std::uint64_t trace_id, TraceSpan&& span);
  void apply_injected_delay() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> injected_delay_us_{0};
  std::atomic<std::uint64_t> next_trace_{0};
  std::atomic<std::uint64_t> next_span_{0};

  mutable std::mutex mutex_;
  std::uint64_t sampling_period_ = 1;
  std::size_t capacity_ = 4096;
  std::map<std::uint64_t, ActiveTrace> active_;
  std::deque<CompletedTrace> completed_;
  std::uint64_t completed_seq_ = 0;  ///< seq of completed_.back()
  std::uint64_t sampled_count_ = 0;
  std::uint64_t completed_count_ = 0;
  std::uint64_t evicted_count_ = 0;
  std::uint64_t dropped_spans_ = 0;
  std::uint64_t late_spans_ = 0;
};

/// Records one phase against `context` with explicit timing, parented
/// to the root span.  The cross-thread form: used where no thread holds
/// the binding while the time passes (FIFO wait, pool wait).
void record_phase(const TraceContext& context, Phase phase,
                  double start_seconds, double duration_seconds,
                  std::uint64_t bytes = 0, std::string detail = {});

/// RAII phase span on the bound context — the one timing primitive of
/// the stack.  Construction samples the clock and pushes onto the
/// thread's phase stack (so nested phases parent correctly);
/// destruction (or finish()) pops and records.
///
/// The metric-sink form also feeds the registry: when obs::enabled(),
/// the same pair of clock reads records one `latency` sample.  The span
/// and the sample are gated independently, so either may be on alone.
/// Near-zero cost when metrics are off and the thread is unbound or the
/// trace unsampled.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase, std::uint64_t bytes = 0,
                       const char* detail = nullptr);
  ScopedPhase(Phase phase, std::uint64_t bytes, const char* detail,
              Histogram& latency);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Ends the span early (idempotent; the destructor becomes a no-op).
  void finish();

 private:
  bool active_ = false;           ///< recording a trace span
  Histogram* latency_ = nullptr;  ///< non-null while a sample is owed
  Phase phase_ = Phase::kOther;
  std::uint64_t bytes_ = 0;
  const char* detail_ = nullptr;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_ = 0;
  TraceContext context_;
  double start_ = 0.0;
};

}  // namespace apio::obs::trace
