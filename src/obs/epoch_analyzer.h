// Epoch-timeline analyzer: reconstructs the paper's per-epoch
// performance model (Eq. 1-5, Fig. 1) from the unified IoRecord stream
// plus epoch-boundary markers, and checks the model's predictions
// against what actually ran — live model-drift detection.
//
// Workloads bracket each epoch (time step / checkpoint / training
// batch) with an EpochScope RAII marker; VOL connectors keep emitting
// IoRecords as before.  An EpochAnalyzer subscribes to both streams and
// rebuilds, per epoch and per rank: observed t_comp, t_io, t_transact,
// overlap efficiency and the Fig. 1 scenario classification.  Each
// reconstructed epoch is then fed through model::epoch_model (Eq. 2a/2b)
// to report predicted-vs-observed epoch duration — per-epoch relative
// error, the worst epoch, and the cumulative Eq. 1 application-time
// error.  Epochs whose live error exceeds a threshold bump the
// "obs.epoch.drift_alerts" registry counter as they close.
//
// Attribution: IoRecords carry the rank of the *issuing* thread
// (IoRecord::origin_rank) and their issue timestamp; the analyzer files
// each record into the epoch whose [begin, end) window contains the
// issue time on that rank's timeline.  Records issued outside any epoch
// are counted as orphans.  Both sides must sample the same clock, and
// do: connectors time their records with obs::steady_seconds(), as
// EpochScope times its markers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/epoch_model.h"
#include "obs/record.h"

namespace apio::obs {

// ---------------------------------------------------------------------------
// Epoch-boundary marker stream

/// One epoch-boundary marker.  kComputeStart/kComputeDone bracket the
/// computation phase inside the epoch (for workloads whose I/O precedes
/// or follows the compute); kComputeStart defaults to the epoch begin
/// when never emitted.
struct EpochEvent {
  enum class Kind : std::uint8_t { kBegin, kComputeStart, kComputeDone, kEnd };
  Kind kind = Kind::kBegin;
  std::int64_t epoch = 0;  ///< caller-assigned epoch index (step, checkpoint)
  int rank = 0;            ///< emitting pmpi rank (clamped to >= 0)
  double time_seconds = 0.0;  ///< steady-clock timestamp (obs::steady_seconds)
};

const char* to_string(EpochEvent::Kind kind);

/// Subscriber to the process-wide epoch-marker stream.  Implementations
/// must be thread-safe (every rank thread emits markers).
class EpochSink {
 public:
  virtual ~EpochSink() = default;
  virtual void on_epoch_event(const EpochEvent& event) = 0;
};

/// Registers/unregisters a sink on the process-wide marker stream.  The
/// caller owns the sink and must remove it before destroying it.
void add_epoch_sink(EpochSink* sink);
void remove_epoch_sink(EpochSink* sink);

/// Lock-free probe: true when at least one sink is registered.  The
/// EpochScope fast path is one relaxed load when nobody listens.
bool epoch_sinks_active();

/// Broadcasts one marker to every registered sink.
void emit_epoch_event(const EpochEvent& event);

/// RAII epoch-boundary marker emitted by workloads and examples around
/// each model epoch.  Near-zero cost when no sink is registered.
///
///   for (int step = 0; step < steps; ++step) {
///     obs::EpochScope epoch(step);        // compute phase starts here
///     simulated_compute(t_comp);
///     epoch.compute_done();               // I/O phase starts here
///     connector.dataset_write(...);
///   }                                     // epoch ends at scope exit
class EpochScope {
 public:
  /// Markers carry the calling thread's pmpi rank (debug::thread_tag()),
  /// clamped to 0 outside an SPMD region, so single-threaded tools get
  /// rank 0.
  explicit EpochScope(std::int64_t epoch);
  EpochScope(const EpochScope&) = delete;
  EpochScope& operator=(const EpochScope&) = delete;
  ~EpochScope();

  /// Marks the start of the computation phase (only needed when the
  /// epoch does not begin with compute, e.g. issue-then-overlap loops).
  void compute_start();

  /// Marks the compute -> I/O transition.
  void compute_done();

  /// Ends the epoch early (idempotent; the destructor becomes a no-op).
  void end();

 private:
  bool active_ = false;
  std::int64_t epoch_ = 0;
  int rank_ = 0;
};

// ---------------------------------------------------------------------------
// Reconstruction

/// One rank's reconstructed view of one epoch.
struct EpochRankStats {
  int rank = 0;
  double begin_seconds = 0.0;  ///< marker timestamps (steady clock)
  double end_seconds = 0.0;
  bool ended = false;          ///< false: unterminated EpochScope
  /// Resolved compute window [start, done] (falls back to the epoch
  /// begin / first I/O issue / end when markers were not emitted).
  double compute_start_seconds = 0.0;
  double compute_done_seconds = 0.0;
  double t_comp = 0.0;
  double t_io = 0.0;           ///< full-transfer seconds (Eq. 2 t_io)
  double t_transact = 0.0;     ///< staging-copy overhead (async records)
  int ops = 0;
  int async_ops = 0;
  int cache_hits = 0;
  std::uint64_t bytes = 0;
  /// Attributed records, whole (trace_id included), in arrival order.
  std::vector<IoRecord> io;

  double observed_seconds() const { return end_seconds - begin_seconds; }
};

/// One epoch aggregated across ranks with Eq. 3 semantics: the slowest
/// rank determines each phase's duration.
struct EpochStats {
  std::int64_t epoch = 0;
  int ranks = 0;
  bool unterminated = false;  ///< some rank never ended the scope
  model::IoMode mode = model::IoMode::kSync;
  model::EpochCosts costs;     ///< observed t_comp / t_io / t_transact
  double observed_seconds = 0.0;   ///< max(end) - min(begin) over ranks
  double predicted_seconds = 0.0;  ///< Eq. 2a/2b on the observed costs
  model::OverlapScenario scenario = model::OverlapScenario::kIdeal;
  /// Fraction of the full I/O transfer hidden behind computation
  /// (1 = fully hidden, 0 = fully exposed; 0 for sync epochs).
  double overlap_efficiency = 0.0;
  int ops = 0;
  std::uint64_t bytes = 0;
  std::vector<EpochRankStats> per_rank;

  /// |predicted - observed| / observed (0 when observed == 0).
  double relative_error() const;
};

/// Whole-run reconstruction + drift summary.
struct EpochReport {
  std::vector<EpochStats> epochs;
  std::size_t orphan_records = 0;   ///< IoRecords outside any epoch window
  std::size_t drift_alerts = 0;     ///< live threshold crossings
  /// Drift aggregates over terminated epochs only.
  double mean_relative_error = 0.0;
  double worst_relative_error = 0.0;
  std::int64_t worst_epoch = -1;
  /// Cumulative Eq. 1 application time (sum over terminated epochs).
  double observed_app_seconds = 0.0;
  double predicted_app_seconds = 0.0;
  double cumulative_relative_error = 0.0;

  /// Aligned per-epoch table (one row per epoch).
  std::string table() const;
  /// Drift summary paragraph (worst epoch, cumulative Eq. 1 error, ...).
  std::string summary() const;
  /// Chrome trace_event JSON with one lane pair per rank: epoch/compute
  /// phase spans on one lane, attributed I/O records on the other.
  std::string to_chrome_json() const;
};

/// Observer sink reconstructing epochs from markers + IoRecords.
/// Thread-safe; register with add_epoch_sink() and
/// Connector::add_observer().  attach()/detach() wire the marker side.
class EpochAnalyzer final : public IoObserver, public EpochSink {
 public:
  /// Live per-rank-epoch relative-error threshold; crossing it at
  /// scope end counts a drift alert and bumps the
  /// "obs.epoch.drift_alerts" registry counter (when metrics are
  /// enabled).
  static constexpr double kDriftAlertThreshold = 0.25;

  EpochAnalyzer();
  ~EpochAnalyzer() override;

  /// Registers this analyzer on the process-wide marker stream
  /// (idempotent).  The destructor detaches automatically.
  void attach();
  void detach();

  // IoObserver
  void on_io(const IoRecord& record) override;

  // EpochSink
  void on_epoch_event(const EpochEvent& event) override;

  /// Reconstruction over everything seen so far.  Unterminated epochs
  /// are reported (flagged) but excluded from the drift aggregates.
  EpochReport report() const;

  std::size_t drift_alerts() const;

  /// Drops all accumulated state (markers and records).
  void reset();

 private:
  struct RankEpoch;

  static EpochRankStats resolve(int rank, const RankEpoch& re);
  RankEpoch* find_rank_epoch_locked(int rank, double issue_time);
  void finalize_rank_epoch_locked(const EpochEvent& event);

  mutable std::mutex mutex_;
  bool attached_ = false;
  /// (epoch index, rank) -> per-rank reconstruction state.
  std::map<std::pair<std::int64_t, int>, RankEpoch> epochs_;
  std::size_t orphans_ = 0;
  std::size_t alerts_ = 0;
};

using EpochAnalyzerPtr = std::shared_ptr<EpochAnalyzer>;

}  // namespace apio::obs
