// The unified I/O observation stream: one record shape for every
// consumer of "runtime tracking of I/O calls" (the paper's Fig. 2
// methodology), behind a composable observer API.
//
// A VOL connector emits one IoRecord per container operation (write,
// read, prefetch, flush) and a CompositeObserver fans it out to however
// many subscribers are attached with Connector::add_observer — the
// model's history (ModeAdvisor), vol::TraceRecorder, a user probe.
// Every consumer is an observer of this one stream; none wraps a
// connector to see it.  Op and byte counts are read off the stream (or
// a TraceRecorder's copy of it), not mirrored into the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace apio::obs {

/// Operation kind of one observed container call.
enum class IoOp : std::uint8_t { kWrite = 0, kRead = 1, kPrefetch = 2, kFlush = 3 };

const char* to_string(IoOp op);

/// One observed container operation: the one per-op struct.  The
/// connector emits it to the observer chain, a vol::Trace persists it,
/// the epoch analyzer attributes it, and an async request carries it as
/// its identity (Request::info()), so a failure reports the op it was.
struct IoRecord {
  IoOp op = IoOp::kWrite;
  /// Container path of the dataset ("" for flush).  Only filled when an
  /// attached observer reports wants_detail() — building the string
  /// costs a reverse path lookup the model does not need.
  std::string dataset_path;
  /// Compact selection token (vol::selection_to_token form); empty when
  /// no observer wants detail, or for flush.
  std::string selection;
  /// Linearized byte offset of the selection start within the dataset
  /// (0 for an all-selection); filled with the path and selection.
  std::uint64_t offset = 0;
  /// Payload bytes moved by this rank's call.
  std::uint64_t bytes = 0;
  /// The issuing thread's pmpi world size; 1 outside an SPMD region.
  int ranks = 1;
  /// pmpi rank of the thread that *issued* the operation (-1 outside an
  /// SPMD region).  Captured at issue time, so async completion records
  /// emitted from the background stream still carry the issuing rank —
  /// the epoch analyzer attributes records to per-rank timelines by it.
  int origin_rank = -1;
  /// Issue timestamp in seconds on obs::steady_seconds() (absolute;
  /// trace sinks rebase against their own start time).
  double issue_time = 0.0;
  /// Seconds the *caller* was blocked.  For sync I/O this is the full
  /// transfer; for async it is the transactional (staging-copy) overhead.
  double blocking_seconds = 0.0;
  /// Seconds until the data was resident on the target storage
  /// (equals blocking_seconds for sync I/O).  An async request's own
  /// record has it only once the request completed.
  double completion_seconds = 0.0;
  /// Whether the async path served/handled this transfer.
  bool async = false;
  /// True when a read was served from the prefetch cache.
  bool cache_hit = false;
  /// Causal trace identity (obs::trace) of the request that produced
  /// this record; 0 when tracing was off at issue time.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// Observer interface; implementations must be thread-safe (async
/// completions invoke it from the background stream).
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void on_io(const IoRecord& record) = 0;

  /// True when this observer consumes dataset_path/selection.
  /// Connectors skip building those strings when no attached observer
  /// wants them, keeping the model-only fast path string-free.
  virtual bool wants_detail() const { return false; }
};

using IoObserverPtr = std::shared_ptr<IoObserver>;

/// Fans one record stream out to any number of subscribers.  The
/// redesign that replaces the single Connector::set_observer() slot:
/// connectors own one CompositeObserver and expose add_observer().
///
/// Thread-safe: observers may be added/removed while records flow.
/// Emission dispatches against a snapshot taken under the guard, so a
/// concurrent remove() never invalidates the iteration; the shared_ptr
/// keeps a just-removed observer alive for at most one in-flight
/// record, which removers must tolerate (or drain the connector first).
class CompositeObserver final : public IoObserver {
 public:
  void add(IoObserverPtr observer);

  /// Removes one previously added observer (by identity).  Unknown
  /// pointers are ignored.
  void remove(const IoObserverPtr& observer);

  void clear();

  std::size_t size() const;

  /// Lock-free emptiness probe for the emission fast path.
  bool empty() const { return count_.load(std::memory_order_relaxed) == 0; }

  bool wants_detail() const override {
    return wants_detail_.load(std::memory_order_relaxed);
  }

  void on_io(const IoRecord& record) override;

 private:
  void refresh_flags_locked();

  mutable std::mutex mutex_;
  std::vector<IoObserverPtr> observers_;
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> wants_detail_{false};
};

using CompositeObserverPtr = std::shared_ptr<CompositeObserver>;

}  // namespace apio::obs
