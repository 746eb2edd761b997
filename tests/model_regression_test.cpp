// Tests for the normal-equation regression (Eq. 4), r² (Eq. 5) and the
// rate estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "model/estimator.h"
#include "model/regression.h"

namespace apio::model {
namespace {

TEST(RegressionTest, ExactLineRecovered) {
  // y = 2 + 3x fitted exactly.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (double x = 0; x < 5; ++x) {
    rows.push_back({1.0, x});
    y.push_back(2.0 + 3.0 * x);
  }
  const auto fit = fit_least_squares(rows, y);
  ASSERT_EQ(fit.beta.size(), 2u);
  EXPECT_NEAR(fit.beta[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.beta[1], 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.n, 5u);
}

TEST(RegressionTest, TwoFeaturePlaneRecovered) {
  // y = 1 + 2a - 0.5b.
  Rng rng(5);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double a = rng.uniform(0, 10);
    const double b = rng.uniform(0, 10);
    rows.push_back({1.0, a, b});
    y.push_back(1.0 + 2.0 * a - 0.5 * b);
  }
  const auto fit = fit_least_squares(rows, y);
  EXPECT_NEAR(fit.beta[0], 1.0, 1e-9);
  EXPECT_NEAR(fit.beta[1], 2.0, 1e-9);
  EXPECT_NEAR(fit.beta[2], -0.5, 1e-9);
}

TEST(RegressionTest, NoisyFitHasHighButImperfectR2) {
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 100);
    rows.push_back({1.0, x});
    y.push_back(5.0 + 0.7 * x + rng.normal(0.0, 2.0));
  }
  const auto fit = fit_least_squares(rows, y);
  EXPECT_GT(fit.r_squared, 0.95);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_NEAR(fit.beta[1], 0.7, 0.05);

  // The running-sum R² equals the residual definition, 1 − SS_res/SS_tot.
  double mean = 0.0;
  for (double v : y) mean += v / static_cast<double>(y.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    ss_res += std::pow(y[i] - predict(fit, rows[i]), 2);
    ss_tot += std::pow(y[i] - mean, 2);
  }
  EXPECT_NEAR(fit.r_squared, 1.0 - ss_res / ss_tot, 1e-9);
}

TEST(RegressionTest, NormalEquationsFitsStreamedSamples) {
  // Samples fold into the sums one at a time: y = 4 - x.
  NormalEquations sums(2);
  EXPECT_THROW(sums.fit(), InvalidArgumentError);  // under-determined
  for (double x = 0; x < 6; ++x) {
    const std::vector<double> row{1.0, x};
    sums.add(row, 4.0 - x);
  }
  const auto fit = sums.fit();
  EXPECT_EQ(fit.n, 6u);
  EXPECT_NEAR(fit.beta[0], 4.0, 1e-9);
  EXPECT_NEAR(fit.beta[1], -1.0, 1e-9);
  EXPECT_THROW(sums.add(std::vector<double>{1.0}, 0.0), InvalidArgumentError);
}

TEST(RegressionTest, PredictsAtNewPoints) {
  std::vector<std::vector<double>> rows{{1, 1}, {1, 2}, {1, 3}};
  std::vector<double> y{2, 4, 6};
  const auto fit = fit_least_squares(rows, y);
  const std::vector<double> probe{1.0, 10.0};
  EXPECT_NEAR(predict(fit, probe), 20.0, 1e-9);
}

TEST(RegressionTest, UnderDeterminedRejected) {
  std::vector<std::vector<double>> rows{{1, 2, 3}};
  std::vector<double> y{1};
  EXPECT_THROW(fit_least_squares(rows, y), InvalidArgumentError);
}

TEST(RegressionTest, CollinearFeaturesResolvedByRegularization) {
  // Second column is 2x the first: the plain normal matrix is singular.
  // This is the weak-scaling regime (data size proportional to ranks),
  // so the solver must still produce a usable fit on the observed
  // manifold via its ridge fallback.
  std::vector<std::vector<double>> rows{{1, 2}, {2, 4}, {3, 6}};
  std::vector<double> y{1, 2, 3};
  const auto fit = fit_least_squares(rows, y);
  ASSERT_TRUE(fit.valid());
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-6);
  const std::vector<double> probe{2.0, 4.0};
  EXPECT_NEAR(predict(fit, probe), 2.0, 1e-6);
}

TEST(RegressionTest, SizeMismatchRejected) {
  std::vector<std::vector<double>> rows{{1}, {1}};
  std::vector<double> y{1};
  EXPECT_THROW(fit_least_squares(rows, y), InvalidArgumentError);
}

TEST(RegressionTest, RaggedMatrixRejected) {
  std::vector<std::vector<double>> rows{{1, 2}, {1}};
  std::vector<double> y{1, 2};
  EXPECT_THROW(fit_least_squares(rows, y), InvalidArgumentError);
}

TEST(RegressionTest, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(r_squared_correlation(x, y), 1.0, 1e-12);
}

TEST(RegressionTest, PearsonAntiCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
  EXPECT_NEAR(r_squared_correlation(x, y), 1.0, 1e-12);
}

TEST(RegressionTest, PearsonZeroVarianceIsZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(RegressionTest, FeatureFormsBuildExpectedRows) {
  const auto lin = make_features(FeatureForm::kLinear, 100.0, 4.0);
  EXPECT_EQ(lin, (std::vector<double>{1.0, 100.0, 4.0}));
  const auto log = make_features(FeatureForm::kLinearLog, std::exp(2.0), std::exp(1.0));
  EXPECT_NEAR(log[1], 2.0, 1e-12);
  EXPECT_NEAR(log[2], 1.0, 1e-12);
  EXPECT_THROW(make_features(FeatureForm::kLinear, 0.0, 1.0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// IoRateEstimator

std::vector<IoSample> linear_rate_samples() {
  // rate = 1e8 + 500*size + 2e6*ranks (perfectly linear population).
  std::vector<IoSample> samples;
  for (std::uint64_t size : {1000u, 2000u, 4000u, 8000u}) {
    for (int ranks : {2, 4, 8}) {
      IoSample s;
      s.data_size = size;
      s.ranks = ranks;
      s.io_rate = 1e8 + 500.0 * static_cast<double>(size) + 2e6 * ranks;
      samples.push_back(s);
    }
  }
  return samples;
}

IoRateEstimator fitted(FeatureForm form, const std::vector<IoSample>& samples) {
  IoRateEstimator est(form);
  for (const auto& s : samples) est.add(s);
  return est;
}

TEST(IoRateEstimatorTest, NotReadyUntilEnoughSamples) {
  const auto samples = linear_rate_samples();
  IoRateEstimator est = fitted(FeatureForm::kLinear, {samples.begin(), samples.begin() + 2});
  EXPECT_FALSE(est.ready());
  EXPECT_THROW(est.estimate_rate(1000, 4), InvalidArgumentError);
  est.add(samples[2]);
  EXPECT_TRUE(est.ready());
  EXPECT_EQ(est.size(), 3u);
}

TEST(IoRateEstimatorTest, RejectsDegenerateSamples) {
  IoRateEstimator est;
  EXPECT_THROW(est.add({0, 4, 1e8}), InvalidArgumentError);
  EXPECT_THROW(est.add({100, 0, 1e8}), InvalidArgumentError);
  EXPECT_THROW(est.add({100, 4, 0.0}), InvalidArgumentError);
  EXPECT_EQ(est.size(), 0u);
}

TEST(IoRateEstimatorTest, FitsLinearPopulationExactly) {
  const IoRateEstimator est = fitted(FeatureForm::kLinear, linear_rate_samples());
  ASSERT_TRUE(est.ready());
  EXPECT_NEAR(est.r_squared(), 1.0, 1e-9);
  EXPECT_NEAR(est.estimate_rate(3000, 6), 1e8 + 500.0 * 3000 + 2e6 * 6, 1e-3);
}

TEST(IoRateEstimatorTest, EstimateSecondsIsEq3) {
  const IoRateEstimator est = fitted(FeatureForm::kLinear, linear_rate_samples());
  const double rate = est.estimate_rate(4000, 8);
  EXPECT_NEAR(est.estimate_seconds(4000, 8), 4000.0 / rate, 1e-12);
}

TEST(IoRateEstimatorTest, ExtrapolationClampedToEnvelope) {
  // A population whose fit has a negative slope in size.
  IoRateEstimator est(FeatureForm::kLinear);
  for (int i = 1; i <= 6; ++i) {
    est.add({static_cast<std::uint64_t>(i) * 1000, i, 1e9 / i});  // decreasing
  }
  // Far extrapolation would go negative; the clamp keeps it positive.
  EXPECT_GT(est.estimate_rate(1000ull * 1000 * 1000, 10000), 0.0);
}

TEST(IoRateEstimatorTest, AutoFormPrefersLogWhenLogIsTruth) {
  // rate = 1e8 * (1 + log(size) + 2 log(ranks)) — linear in the logs.
  IoRateEstimator est(FeatureForm::kLinear);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t size = 1000u << (i % 8);
    const int ranks = 1 << (i % 6);
    est.add({size, ranks,
             1e8 * (1.0 + std::log(static_cast<double>(size)) +
                    2.0 * std::log(static_cast<double>(ranks)))});
  }
  EXPECT_EQ(est.form(), FeatureForm::kLinearLog);
  EXPECT_NEAR(est.r_squared(), 1.0, 1e-9);
}

TEST(IoRateEstimatorTest, TiesKeepStartingForm) {
  // A constant rate fits both forms exactly (R² = 1 for each).
  std::vector<IoSample> constant;
  for (const auto& s : linear_rate_samples()) constant.push_back({s.data_size, s.ranks, 5e8});
  EXPECT_EQ(fitted(FeatureForm::kLinear, constant).form(), FeatureForm::kLinear);
  EXPECT_EQ(fitted(FeatureForm::kLinearLog, constant).form(), FeatureForm::kLinearLog);
}

TEST(IoRateEstimatorTest, DegenerateRefitStillPredictsObservedPoint) {
  // All-identical samples make the plain normal matrix singular; the
  // regularised fallback must still reproduce the repeated observation.
  const IoRateEstimator est =
      fitted(FeatureForm::kLinear, std::vector<IoSample>(5, IoSample{1000, 4, 1e8}));
  EXPECT_TRUE(est.ready());
  EXPECT_NEAR(est.estimate_rate(1000, 4), 1e8, 1e8 * 1e-3);
}

}  // namespace
}  // namespace apio::model
