#include "storage/resilient_backend.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace apio::storage {
namespace {

const Clock& default_clock() {
  static WallClock clock;
  return clock;
}

obs::Histogram& backoff_hist() {
  static auto& h = obs::Registry::instance().histogram("io.retry_backoff_seconds");
  return h;
}

obs::Counter& deadline_exhausted_counter() {
  static auto& c = obs::Registry::instance().counter("io.deadline_exhausted");
  return c;
}

}  // namespace

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

CircuitBreaker::CircuitBreaker(BreakerOptions options, const Clock* clock)
    : options_(options), clock_(clock) {}

void CircuitBreaker::transition_locked(BreakerState next) {
  if (state_ == next) return;
  state_ = next;
  if (next == BreakerState::kOpen) {
    ++trips_;
    opened_at_ = clock_->now();
  }
}

bool CircuitBreaker::allow() {
  std::lock_guard lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen:
      if (clock_->now() - opened_at_ >= options_.open_seconds) {
        transition_locked(BreakerState::kHalfOpen);
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::on_success() {
  std::lock_guard lock(mutex_);
  failures_ = 0;
  transition_locked(BreakerState::kClosed);
}

void CircuitBreaker::on_failure() {
  std::lock_guard lock(mutex_);
  ++failures_;
  if (state_ == BreakerState::kHalfOpen) {
    transition_locked(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed && options_.failure_threshold > 0 &&
      failures_ >= options_.failure_threshold) {
    transition_locked(BreakerState::kOpen);
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard lock(mutex_);
  return trips_;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard lock(mutex_);
  return failures_;
}

ResilientBackend::ResilientBackend(BackendPtr inner, ResilienceOptions options,
                                   const Clock* clock, Sleeper* sleeper)
    : Decorator(std::move(inner), "resilient"),
      policy_(options.retry),
      clock_(clock != nullptr ? clock : &default_clock()),
      sleeper_(sleeper != nullptr ? sleeper : &wall_sleeper()) {
  policy_.validate();
  if (options.breaker.failure_threshold > 0) {
    breaker_ = std::make_unique<CircuitBreaker>(options.breaker, clock_);
  }
}

void ResilientBackend::around(obs::IoOp op, std::uint64_t /*offset*/,
                              std::uint64_t bytes, Transfer transfer) {
  if (op == obs::IoOp::kFlush) return run(transfer);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, bytes, "resilient");
  run(transfer);
}

void ResilientBackend::run(Transfer transfer) {
  const std::uint64_t call = calls_.fetch_add(1, std::memory_order_relaxed);
  // The deadline is anchored at the start of the call, so the time the
  // first failed attempt took counts against it.
  const double start = policy_.deadline_seconds > 0.0 ? clock_->now() : 0.0;
  std::optional<Rng> rng;  // built at the first backoff
  int attempt = 0;
  // Whether attempt `attempt` may be retried; sleeps its backoff if so.
  const auto back_off = [&] {
    if (attempt >= policy_.max_attempts) return false;
    // Rng's SplitMix64 seeding decorrelates adjacent seeds.
    if (!rng) rng.emplace(RetryPolicy::kJitterSeed + call);
    const double backoff = policy_.backoff_for(attempt, *rng);
    if (policy_.deadline_seconds > 0.0 &&
        clock_->now() - start + backoff > policy_.deadline_seconds) {
      if (obs::enabled()) deadline_exhausted_counter().increment();
      return false;
    }
    if (obs::enabled()) backoff_hist().record_seconds(backoff);
    obs::trace::ScopedPhase backoff_span(obs::trace::Phase::kBackoff);
    sleeper_->sleep(backoff);
    return true;
  };
  bool reached = false;
  for (;;) {
    ++attempt;
    try {
      if (breaker_ != nullptr && !breaker_->allow()) {
        throw BreakerOpenError("circuit breaker open for storage:" +
                               inner()->name());
      }
      // A retry is counted as it reaches the inner backend, so a call
      // that fails for good still reports the retries it spent.
      if (std::exchange(reached, true)) {
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
      transfer();
      if (breaker_ != nullptr) breaker_->on_success();
      return;
    } catch (const BreakerOpenError&) {
      // The rejected attempt never reached the backend; feeding it back
      // into the breaker would keep the breaker open forever.
      if (!back_off()) throw;
    } catch (const TransientIoError&) {
      if (breaker_ != nullptr) breaker_->on_failure();
      if (!back_off()) throw;
    } catch (...) {
      if (breaker_ != nullptr) breaker_->on_failure();
      if (!policy_.retry_permanent || !back_off()) throw;
    }
  }
}

}  // namespace apio::storage
