// The I/O-rate estimator of Sec. III-B (Eq. 3/4).
#pragma once

#include <cstdint>
#include <limits>

#include "model/regression.h"

namespace apio::model {

/// One observed data transfer: the scaling features and the aggregate
/// rate the regression fits.
struct IoSample {
  std::uint64_t data_size = 0;  ///< aggregate bytes of the phase
  int ranks = 1;
  double io_rate = 0.0;  ///< aggregate bytes/s achieved
};

/// Fits the aggregate I/O rate as a function of (data size, ranks) and
/// answers rate / time queries for hypothetical transfers.  One
/// estimator instance covers one population (e.g. sync writes or async
/// staging copies).  Samples are folded into running sums for both the
/// linear and the linear-log form, so the state is constant-size and
/// add() is O(1).  The fit is solved on the first query after an add
/// and keeps the form with the higher R²; the starting form wins ties
/// (the paper picks linear-log for the sync write trend by inspection;
/// this automates the choice).  Not thread-safe: the owner serialises.
class IoRateEstimator {
 public:
  explicit IoRateEstimator(FeatureForm form = FeatureForm::kLinear);

  /// Throws InvalidArgumentError on a sample without positive size,
  /// ranks and rate.
  void add(const IoSample& sample);

  /// Samples added so far.
  std::size_t size() const { return linear_.size(); }

  /// True once at least 3 samples produced a solvable fit.
  bool ready() const;

  /// Estimated aggregate rate (bytes/s), clamped into the observed
  /// envelope so extrapolation cannot produce nonsense (<= 0).
  double estimate_rate(std::uint64_t data_size, int ranks) const;

  /// Eq. 3: t_io = data_size / f_io_rate.
  double estimate_seconds(std::uint64_t data_size, int ranks) const;

  double r_squared() const;
  FeatureForm form() const;

 private:
  void refit() const;

  const FeatureForm start_form_;
  NormalEquations linear_{3};
  NormalEquations linear_log_{3};
  double min_rate_seen_ = std::numeric_limits<double>::infinity();
  double max_rate_seen_ = 0.0;
  // The last solved fit; a query after add() re-solves it.
  mutable bool dirty_ = false;
  mutable FeatureForm form_;
  mutable LinearFit fit_;
};

}  // namespace apio::model
