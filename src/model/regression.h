// Least-squares regression via the normal equations (Eq. 4) and the
// coefficient of determination (Eq. 5).
//
// The paper fits the observed aggregate I/O rate against two scaling
// features — data size and number of MPI ranks — with plain linear and
// linear-log forms, solving β = (XᵀX)⁻¹XᵀY analytically rather than
// with iterative nonlinear methods.  Both XᵀX and XᵀY are sums over
// samples, so the fit is kept as running sums, not as a sample log.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace apio::model {

/// Result of a least-squares fit.
struct LinearFit {
  /// Coefficients, one per feature column (intercept included when the
  /// design matrix carries a ones column).
  std::vector<double> beta;
  /// Standard R² = 1 − SS_res / SS_tot.
  double r_squared = 0.0;
  /// Number of samples fitted.
  std::size_t n = 0;

  bool valid() const { return !beta.empty(); }
};

/// Running normal-equation sums of a sample stream: XᵀX, Xᵀy, Σy, Σy²
/// and n.  Its size depends only on the feature count, so a model that
/// keeps learning never grows.
class NormalEquations {
 public:
  explicit NormalEquations(std::size_t features);

  /// Folds one sample in: O(k²) for k features.
  void add(std::span<const double> features, double y);

  std::size_t size() const { return n_; }

  /// Solves min ‖Xβ − y‖² over every sample added so far.  Throws
  /// InvalidArgumentError when the system is under-determined or the
  /// normal matrix is singular even under regularisation.
  LinearFit fit() const;

 private:
  std::size_t k_;
  std::vector<double> xtx_;  ///< k×k, row-major
  std::vector<double> xty_;
  double sum_y_ = 0.0;
  double sum_y2_ = 0.0;
  std::size_t n_ = 0;
};

/// Solves min ‖Xβ − y‖² with the normal equations.  `rows` holds one
/// feature vector per sample (all the same length).  Throws
/// InvalidArgumentError when the system is under-determined or the
/// normal matrix is singular.
LinearFit fit_least_squares(const std::vector<std::vector<double>>& rows,
                            std::span<const double> y);

/// Predicted value for one feature vector.
double predict(const LinearFit& fit, std::span<const double> features);

/// Pearson correlation coefficient between two samples.
double pearson(std::span<const double> x, std::span<const double> y);

/// Eq. 5: squared correlation between a single regressor and the
/// response — the r² definition quoted in the paper.
double r_squared_correlation(std::span<const double> x, std::span<const double> y);

/// Feature maps used by the I/O-rate estimators.
enum class FeatureForm {
  kLinear,     ///< [1, size, ranks]
  kLinearLog,  ///< [1, log(size), log(ranks)] — the sync-write fit of Fig. 3
};

/// Builds a design-matrix row for (data_size, ranks) under `form`.
std::vector<double> make_features(FeatureForm form, double data_size, double ranks);

}  // namespace apio::model
