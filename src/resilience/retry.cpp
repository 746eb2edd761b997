#include "resilience/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace apio::resilience {
namespace {

obs::Counter& retries_counter() {
  static auto& c = obs::Registry::instance().counter("io.retries");
  return c;
}

obs::Histogram& backoff_hist() {
  static auto& h = obs::Registry::instance().histogram("io.retry_backoff_seconds");
  return h;
}

obs::Counter& deadline_exhausted_counter() {
  static auto& c = obs::Registry::instance().counter("io.deadline_exhausted");
  return c;
}

constexpr double kNanosPerSecond = 1e9;

}  // namespace

void WallSleeper::sleep(double seconds) {
  if (seconds <= 0.0) return;
  // Deliberate: backoff between retry attempts blocks the execution
  // stream by design — the stream has nothing to do until the retry.
  std::this_thread::sleep_for(  // apio-lint: allow(thread-context)
      std::chrono::duration<double>(seconds));
}

Sleeper& wall_sleeper() {
  static WallSleeper sleeper;
  return sleeper;
}

double ManualClock::now() const {
  return static_cast<double>(nanos_.load(std::memory_order_acquire)) /
         kNanosPerSecond;
}

void ManualClock::advance(double seconds) {
  if (seconds <= 0.0) return;
  nanos_.fetch_add(static_cast<std::int64_t>(seconds * kNanosPerSecond),
                   std::memory_order_acq_rel);
}

void ManualClock::sleep(double seconds) {
  advance(seconds);
  std::lock_guard lock(mutex_);
  sleeps_.push_back(seconds);
}

std::vector<double> ManualClock::sleeps() const {
  std::lock_guard lock(mutex_);
  return sleeps_;
}

double ManualClock::total_slept() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (double s : sleeps_) total += s;
  return total;
}

std::uint64_t ManualClock::sleep_count() const {
  std::lock_guard lock(mutex_);
  return sleeps_.size();
}

ErrorClass classify_error(const std::exception_ptr& error) {
  if (error == nullptr) return ErrorClass::kPermanent;
  try {
    std::rethrow_exception(error);
  } catch (const TransientIoError&) {
    return ErrorClass::kTransient;
  } catch (...) {
    return ErrorClass::kPermanent;
  }
}

double RetryPolicy::backoff_for(int failure_index, Rng& rng) const {
  double delay = base_backoff_seconds;
  for (int i = 1; i < failure_index; ++i) delay *= backoff_multiplier;
  delay = std::min(delay, max_backoff_seconds);
  if (jitter_fraction > 0.0) {
    delay *= rng.uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
  }
  return delay;
}

void RetryPolicy::validate() const {
  APIO_REQUIRE(max_attempts >= 1, "RetryPolicy.max_attempts must be >= 1");
  APIO_REQUIRE(base_backoff_seconds >= 0.0,
               "RetryPolicy.base_backoff_seconds must be >= 0");
  APIO_REQUIRE(backoff_multiplier >= 1.0,
               "RetryPolicy.backoff_multiplier must be >= 1");
  APIO_REQUIRE(max_backoff_seconds >= 0.0,
               "RetryPolicy.max_backoff_seconds must be >= 0");
  APIO_REQUIRE(jitter_fraction >= 0.0 && jitter_fraction < 1.0,
               "RetryPolicy.jitter_fraction must be in [0, 1)");
  APIO_REQUIRE(deadline_seconds >= 0.0,
               "RetryPolicy.deadline_seconds must be >= 0");
}

RetrySession::RetrySession(const RetryPolicy& policy, const Clock* clock,
                           Sleeper* sleeper, CircuitBreaker* breaker)
    : policy_(policy),
      clock_(clock),
      sleeper_(sleeper),
      breaker_(breaker),
      rng_(policy.jitter_seed),
      start_(clock->now()) {
  policy_.validate();
}

void RetrySession::check_breaker() {
  if (breaker_ != nullptr && !breaker_->allow()) {
    throw BreakerOpenError("circuit breaker open" +
                           (breaker_->name().empty()
                                ? std::string()
                                : " for " + breaker_->name()));
  }
}

bool RetrySession::backoff_and_retry(const std::exception_ptr& error) {
  ++attempts_;
  // A breaker-rejected attempt never reached the backend; feeding it
  // back into the breaker would keep the breaker open forever.
  bool breaker_rejection = false;
  try {
    std::rethrow_exception(error);
  } catch (const BreakerOpenError&) {
    breaker_rejection = true;
  } catch (...) {
  }
  if (breaker_ != nullptr && !breaker_rejection) breaker_->on_failure();

  const bool retryable = classify_error(error) == ErrorClass::kTransient ||
                         policy_.retry_permanent;
  if (!retryable) return false;
  if (attempts_ >= policy_.max_attempts) return false;

  const double backoff = policy_.backoff_for(attempts_, rng_);
  if (policy_.deadline_seconds > 0.0) {
    const double elapsed = clock_->now() - start_;
    if (elapsed + backoff > policy_.deadline_seconds) {
      if (obs::enabled()) deadline_exhausted_counter().increment();
      return false;
    }
  }
  if (obs::enabled()) {
    retries_counter().increment();
    backoff_hist().record_seconds(backoff);
  }
  backoff_total_ += backoff;
  {
    obs::trace::ScopedPhase backoff_span(obs::trace::Phase::kBackoff);
    sleeper_->sleep(backoff);
  }
  return true;
}

void RetrySession::note_success() {
  ++attempts_;
  if (breaker_ != nullptr) breaker_->on_success();
}

}  // namespace apio::resilience
