#include "model/estimator.h"

#include <algorithm>
#include <optional>

#include "common/error.h"

namespace apio::model {
namespace {

/// Samples a population needs before its fit participates.
constexpr std::size_t kMinSamples = 3;

std::optional<LinearFit> try_fit(const NormalEquations& sums) {
  try {
    return sums.fit();
  } catch (const InvalidArgumentError&) {
    return std::nullopt;  // singular even under regularisation; keep old fit
  }
}

}  // namespace

IoRateEstimator::IoRateEstimator(FeatureForm form) : start_form_(form), form_(form) {}

void IoRateEstimator::add(const IoSample& sample) {
  APIO_REQUIRE(sample.data_size > 0, "rate samples need a positive data size");
  APIO_REQUIRE(sample.ranks >= 1, "rate samples need >= 1 rank");
  APIO_REQUIRE(sample.io_rate > 0.0, "rate samples need a positive rate");
  const double size = static_cast<double>(sample.data_size);
  const double ranks = static_cast<double>(sample.ranks);
  linear_.add(make_features(FeatureForm::kLinear, size, ranks), sample.io_rate);
  linear_log_.add(make_features(FeatureForm::kLinearLog, size, ranks), sample.io_rate);
  min_rate_seen_ = std::min(min_rate_seen_, sample.io_rate);
  max_rate_seen_ = std::max(max_rate_seen_, sample.io_rate);
  dirty_ = true;
}

void IoRateEstimator::refit() const {
  if (!dirty_ || size() < kMinSamples) return;
  dirty_ = false;
  const FeatureForm other =
      start_form_ == FeatureForm::kLinear ? FeatureForm::kLinearLog : FeatureForm::kLinear;
  auto sums = [this](FeatureForm form) -> const NormalEquations& {
    return form == FeatureForm::kLinear ? linear_ : linear_log_;
  };
  std::optional<LinearFit> best = try_fit(sums(start_form_));
  FeatureForm best_form = start_form_;
  std::optional<LinearFit> alt = try_fit(sums(other));
  if (alt && (!best || alt->r_squared > best->r_squared)) {
    best = std::move(alt);
    best_form = other;
  }
  if (!best) return;
  fit_ = std::move(*best);
  form_ = best_form;
}

bool IoRateEstimator::ready() const {
  refit();
  return fit_.valid();
}

double IoRateEstimator::r_squared() const {
  refit();
  return fit_.r_squared;
}

FeatureForm IoRateEstimator::form() const {
  refit();
  return form_;
}

double IoRateEstimator::estimate_rate(std::uint64_t data_size, int ranks) const {
  APIO_REQUIRE(ready(), "estimate_rate() before at least 3 samples were fitted");
  const auto features = make_features(form_, static_cast<double>(data_size),
                                      static_cast<double>(ranks));
  const double raw = predict(fit_, features);
  // Clamp into a (generously) widened observation envelope: regression
  // extrapolation must never return a non-positive or absurd rate, but
  // legitimate weak-scaling forecasts reach far beyond the trained
  // range (async rates grow linearly with node count), so the ceiling
  // is deliberately loose.
  const double lo = 0.05 * min_rate_seen_;
  const double hi = 1000.0 * max_rate_seen_;
  return std::clamp(raw, lo, hi);
}

double IoRateEstimator::estimate_seconds(std::uint64_t data_size, int ranks) const {
  return static_cast<double>(data_size) / estimate_rate(data_size, ranks);
}

}  // namespace apio::model
