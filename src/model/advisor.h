// ModeAdvisor: the runtime feedback loop of Fig. 2.
//
// Plugged into a VOL connector as its IoObserver, the advisor folds
// every observed transfer into per-mode rate estimators (running
// regression sums, so its state does not grow with the run).  It learns
// the compute-phase duration from the process-wide EpochScope marker
// stream, the same markers the epoch analyzer reads: each rank's compute
// window opens at the epoch begin (or at compute_start) and closes at
// compute_done, and its length feeds a weighted average.  From both it
// recommends — per upcoming I/O phase — whether the epoch algebra
// (Eq. 2a vs. 2b) favours synchronous or asynchronous I/O.  This is the
// "transparent and adaptive asynchronous I/O interface" the paper
// motivates (Sec. II-B): an application that marks its epochs needs no
// other call.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/stats.h"
#include "model/epoch_model.h"
#include "model/estimator.h"
#include "obs/epoch_analyzer.h"
#include "obs/record.h"

namespace apio::model {

class ModeAdvisor : public obs::IoObserver, public obs::EpochSink {
 public:
  /// Registers on the epoch-marker stream; the destructor unregisters.
  ModeAdvisor();
  ~ModeAdvisor() override;
  ModeAdvisor(const ModeAdvisor&) = delete;
  ModeAdvisor& operator=(const ModeAdvisor&) = delete;

  /// IoObserver hook: called by the connector on every transfer
  /// (possibly from the background stream; thread-safe).
  void on_io(const obs::IoRecord& record) override;

  /// EpochSink hook: called from rank threads; closed compute windows
  /// go to record_compute().  An epoch without compute_done adds none.
  void on_epoch_event(const obs::EpochEvent& event) override;

  /// Adds one compute-phase duration (t_comp of Eq. 2).
  void record_compute(double seconds);

  // -- Estimation (Sec. III-B) -------------------------------------------

  bool sync_ready() const;
  bool async_ready() const;
  bool compute_ready() const;

  /// Estimated blocking time for a sync transfer of `bytes` by `ranks`.
  double estimate_io_seconds(std::uint64_t bytes, int ranks) const;

  /// Estimated transactional overhead of staging `bytes` on `ranks`.
  double estimate_transact_seconds(std::uint64_t bytes, int ranks) const;

  double estimate_compute_seconds() const;

  /// Full predicted epoch costs for an upcoming phase.
  EpochCosts predict_epoch(std::uint64_t bytes, int ranks) const;

  // -- Decision (Fig. 2 loop) --------------------------------------------

  /// Recommended I/O mode for the next phase.  Until both rate fits and
  /// a compute sample exist the advisor explores: sync first
  /// (establishing the baseline), then async, then exploits the model.
  IoMode recommend(std::uint64_t bytes, int ranks) const;

  /// Overlap scenario (Fig. 1) predicted for the next phase.
  OverlapScenario predict_scenario(std::uint64_t bytes, int ranks) const;

  // -- Introspection -------------------------------------------------------

  double sync_r_squared() const;
  double async_r_squared() const;
  /// Transfers folded into the rate fits (sync plus async).
  std::size_t sample_count() const;
  std::size_t compute_observations() const;

 private:
  EpochCosts predict_locked(std::uint64_t bytes, int ranks) const;

  mutable std::mutex mutex_;
  IoRateEstimator sync_estimator_{FeatureForm::kLinearLog};
  IoRateEstimator async_estimator_{FeatureForm::kLinear};
  Ewma compute_{0.5};
  std::size_t compute_observations_ = 0;
  /// Start of each rank's open compute window.
  std::unordered_map<int, double> compute_start_;
};

using ModeAdvisorPtr = std::shared_ptr<ModeAdvisor>;

}  // namespace apio::model
