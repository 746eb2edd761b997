#include "model/regression.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.h"

namespace apio::model {
namespace {

/// Solves the k×k system A·x = b with Gaussian elimination and partial
/// pivoting.  Returns nullopt when A is (numerically) singular relative
/// to its own scale.
std::optional<std::vector<double>> try_solve_dense(std::vector<std::vector<double>> a,
                                                   std::vector<double> b) {
  const std::size_t k = b.size();
  double scale = 0.0;
  for (std::size_t i = 0; i < k; ++i) scale = std::max(scale, std::fabs(a[i][i]));
  const double tiny = std::max(scale, 1.0) * 1e-12;
  for (std::size_t col = 0; col < k; ++col) {
    // Pivot.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < k; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    if (std::fabs(a[pivot][col]) < tiny) return std::nullopt;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    // Eliminate below.
    for (std::size_t row = col + 1; row < k; ++row) {
      const double f = a[row][col] / a[col][col];
      for (std::size_t j = col; j < k; ++j) a[row][j] -= f * a[col][j];
      b[row] -= f * b[col];
    }
  }
  // Back-substitute.
  std::vector<double> x(k, 0.0);
  for (std::size_t row = k; row-- > 0;) {
    double sum = b[row];
    for (std::size_t j = row + 1; j < k; ++j) sum -= a[row][j] * x[j];
    x[row] = sum / a[row][row];
  }
  return x;
}

/// Solves the normal equations; when the plain system is singular —
/// which happens for *every* weak-scaling history, where data size is
/// exactly proportional to rank count — falls back to a lightly
/// Tikhonov-regularised system.  The ridge term is relative to the
/// matrix scale, so well-conditioned fits are unaffected and collinear
/// fits resolve to a stable solution on the observed manifold.
std::vector<double> solve_normal_equations(const std::vector<std::vector<double>>& xtx,
                                           const std::vector<double>& xty) {
  if (auto exact = try_solve_dense(xtx, xty)) return *exact;
  const std::size_t k = xty.size();
  double trace = 0.0;
  for (std::size_t i = 0; i < k; ++i) trace += xtx[i][i];
  const double lambda = std::max(trace, 1.0) * 1e-9;
  auto ridged = xtx;
  for (std::size_t i = 0; i < k; ++i) ridged[i][i] += lambda;
  if (auto regularised = try_solve_dense(std::move(ridged), xty)) {
    return *regularised;
  }
  throw InvalidArgumentError("normal matrix is singular even under regularisation");
}

}  // namespace

NormalEquations::NormalEquations(std::size_t features)
    : k_(features), xtx_(features * features, 0.0), xty_(features, 0.0) {
  APIO_REQUIRE(features >= 1, "need at least one feature column");
}

void NormalEquations::add(std::span<const double> features, double y) {
  APIO_REQUIRE(features.size() == k_, "ragged design matrix");
  for (std::size_t a = 0; a < k_; ++a) {
    xty_[a] += features[a] * y;
    for (std::size_t b = 0; b < k_; ++b) xtx_[a * k_ + b] += features[a] * features[b];
  }
  sum_y_ += y;
  sum_y2_ += y * y;
  ++n_;
}

LinearFit NormalEquations::fit() const {
  APIO_REQUIRE(n_ >= k_, "under-determined system: fewer samples than features");
  const double n = static_cast<double>(n_);

  // Column equilibration: features span many orders of magnitude
  // (byte counts vs. ones column), which would make both the pivoting
  // tolerance and the ridge fallback meaningless.  Normalise each
  // column to unit RMS, solve, then unscale the coefficients.
  std::vector<double> scale(k_);
  for (std::size_t j = 0; j < k_; ++j) {
    scale[j] = std::sqrt(xtx_[j * k_ + j] / n);
    if (scale[j] <= 0.0) scale[j] = 1.0;
  }
  std::vector<std::vector<double>> xtx(k_, std::vector<double>(k_));
  std::vector<double> xty(k_);
  for (std::size_t a = 0; a < k_; ++a) {
    xty[a] = xty_[a] / scale[a];
    for (std::size_t b = 0; b < k_; ++b) {
      xtx[a][b] = xtx_[a * k_ + b] / (scale[a] * scale[b]);
    }
  }
  const std::vector<double> beta = solve_normal_equations(xtx, xty);

  LinearFit fit;
  fit.n = n_;
  for (std::size_t j = 0; j < k_; ++j) fit.beta.push_back(beta[j] / scale[j]);

  // R² = 1 − SS_res / SS_tot, both expanded over the sums:
  // SS_res = Σy² − 2βᵀXᵀy + βᵀXᵀXβ and SS_tot = Σy² − n·ȳ².
  double ss_res = sum_y2_;
  for (std::size_t a = 0; a < k_; ++a) {
    ss_res -= 2.0 * beta[a] * xty[a];
    for (std::size_t b = 0; b < k_; ++b) ss_res += beta[a] * xtx[a][b] * beta[b];
  }
  ss_res = std::max(ss_res, 0.0);
  const double y_mean = sum_y_ / n;
  const double ss_tot = std::max(sum_y2_ - n * y_mean * y_mean, 0.0);
  // A (near-)constant response makes SS_tot collapse to floating-point
  // noise and the usual ratio meaningless; judge the residuals against
  // the response magnitude instead.
  const double response_scale = n * std::max(y_mean * y_mean, 1e-300);
  if (ss_tot > 1e-12 * response_scale) {
    fit.r_squared = 1.0 - ss_res / ss_tot;
  } else {
    fit.r_squared = ss_res <= 1e-12 * response_scale ? 1.0 : 0.0;
  }
  return fit;
}

LinearFit fit_least_squares(const std::vector<std::vector<double>>& rows,
                            std::span<const double> y) {
  APIO_REQUIRE(rows.size() == y.size(), "X row count must match y size");
  APIO_REQUIRE(!rows.empty(), "cannot fit an empty sample");
  NormalEquations sums(rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i) sums.add(rows[i], y[i]);
  return sums.fit();
}

double predict(const LinearFit& fit, std::span<const double> features) {
  APIO_REQUIRE(fit.valid(), "predict() on an empty fit");
  APIO_REQUIRE(features.size() == fit.beta.size(), "feature count mismatch");
  double v = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) v += fit.beta[i] * features[i];
  return v;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  APIO_REQUIRE(x.size() == y.size() && x.size() >= 2, "pearson needs >= 2 pairs");
  const std::size_t n = x.size();
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double cov = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (x[i] - mx) * (y[i] - my);
    vx += (x[i] - mx) * (x[i] - mx);
    vy += (y[i] - my) * (y[i] - my);
  }
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

double r_squared_correlation(std::span<const double> x, std::span<const double> y) {
  const double r = pearson(x, y);
  return r * r;
}

std::vector<double> make_features(FeatureForm form, double data_size, double ranks) {
  APIO_REQUIRE(data_size > 0.0 && ranks > 0.0,
               "scaling features must be positive");
  switch (form) {
    case FeatureForm::kLinear:
      return {1.0, data_size, ranks};
    case FeatureForm::kLinearLog:
      return {1.0, std::log(data_size), std::log(ranks)};
  }
  throw InvalidArgumentError("unknown feature form");
}

}  // namespace apio::model
