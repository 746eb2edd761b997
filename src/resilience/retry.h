// apio::resilience — retry/backoff machinery for transient storage
// faults.
//
// The paper's premise is that async I/O hides storage cost behind
// compute; on real PFS deployments part of that hidden cost is
// transient failure (a congested OST returning EIO, a flaky network
// hop).  Production streaming stacks treat those as expected events to
// be retried under policy rather than fatal, and recovery happens at
// the aggregated-request granularity.  This module provides the policy
// (bounded attempts, exponential backoff with deterministic seeded
// jitter, per-call deadlines), the per-attempt state machine
// (RetrySession) and its one driver, run_with_retry, which
// storage::ResilientBackend runs around every storage call — the
// stack's only retry path.
//
// Everything is deterministic and test-injectable: time comes from an
// apio::Clock, backoff sleeps go through a Sleeper, and jitter is drawn
// from a seeded apio::Rng — tests never wall-sleep (ManualClock
// implements both Clock and Sleeper over virtual time).
//
// Metrics (recorded when obs is enabled):
//   io.retries                 counter, one per re-executed attempt
//   io.retry_backoff_seconds   histogram of individual backoff delays
//   io.deadline_exhausted      counter, retries abandoned by deadline
//   io.breaker_state / io.breaker_trips   (see circuit_breaker.h)
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "resilience/circuit_breaker.h"

namespace apio::resilience {

/// Where backoff delays go.  The wall implementation blocks the calling
/// thread; tests inject a virtual-time implementation instead.
class Sleeper {
 public:
  virtual ~Sleeper() = default;
  virtual void sleep(double seconds) = 0;
};

/// Blocks the calling thread for real (std::this_thread::sleep_for).
class WallSleeper final : public Sleeper {
 public:
  void sleep(double seconds) override;
};

/// Process-wide default sleeper.
Sleeper& wall_sleeper();

/// Thread-safe manually-advanced clock that doubles as a Sleeper:
/// sleep() advances virtual time instead of blocking and records every
/// request, so retry/backoff/deadline tests run in zero wall time and
/// can assert the exact backoff schedule.
class ManualClock final : public Clock, public Sleeper {
 public:
  double now() const override;
  void sleep(double seconds) override;

  /// Moves virtual time forward without recording a sleep.
  void advance(double seconds);

  /// Every sleep() request, in order.
  std::vector<double> sleeps() const;
  double total_slept() const;
  std::uint64_t sleep_count() const;

 private:
  std::atomic<std::int64_t> nanos_{0};
  mutable std::mutex mutex_;  // guards the sleep log only
  std::vector<double> sleeps_;
};

/// Transient errors are expected to clear on retry; permanent ones are
/// not retried (unless the policy opts in).
enum class ErrorClass { kTransient, kPermanent };

/// TransientIoError (and BreakerOpenError) classify transient;
/// everything else — including plain IoError — classifies permanent.
ErrorClass classify_error(const std::exception_ptr& error);

/// Retry policy for one request class.  The default policy performs a
/// single attempt (no retries), which reproduces pre-resilience
/// behavior exactly.
struct RetryPolicy {
  /// Total executions allowed, including the first; 1 = no retry.
  int max_attempts = 1;
  /// Backoff before the first retry, in seconds.
  double base_backoff_seconds = 0.001;
  /// Backoff multiplier per further retry (exponential).
  double backoff_multiplier = 2.0;
  /// Upper clamp on one backoff delay.
  double max_backoff_seconds = 1.0;
  /// Jitter as a fraction of the delay: the delay is scaled by a factor
  /// drawn uniformly from [1 - f, 1 + f).  0 disables jitter (fully
  /// deterministic schedule); the draw is seeded, so even jittered
  /// schedules are reproducible run-to-run.
  double jitter_fraction = 0.0;
  std::uint64_t jitter_seed = 0x5EEDBACCull;
  /// Per-call time budget on the injected clock, measured from session
  /// construction (= the start of the storage call being retried).  A
  /// retry whose backoff would overrun the deadline is abandoned
  /// instead of slept.  0 disables the deadline.
  double deadline_seconds = 0.0;
  /// When true, permanent-classified errors are retried too (for
  /// backends whose plain IoErrors are known to be flaky).
  bool retry_permanent = false;

  bool retries_enabled() const { return max_attempts > 1; }

  /// Backoff for the `failure_index`-th failure (1-based):
  /// base * multiplier^(failure_index-1), clamped, jittered via `rng`.
  double backoff_for(int failure_index, Rng& rng) const;

  /// Throws InvalidArgumentError on nonsensical values.
  void validate() const;
};

/// Per-call retry state machine, driven by run_with_retry: one storage
/// call's attempt sequence on the calling thread (an application
/// thread, or the async connector's background stream); it is not
/// itself thread-safe.
class RetrySession {
 public:
  /// Captures the session start time (the deadline anchor) from
  /// `clock` and seeds the jitter draw from `policy.jitter_seed`.
  /// `breaker` may be null.
  RetrySession(const RetryPolicy& policy, const Clock* clock, Sleeper* sleeper,
               CircuitBreaker* breaker = nullptr);

  /// Throws BreakerOpenError when the breaker rejects the attempt.
  /// Call before executing each attempt.
  void check_breaker();

  /// Records a failed attempt and decides whether to retry.  When a
  /// retry is due: notifies the breaker, records metrics, sleeps the
  /// backoff through the injected sleeper and returns true (the caller
  /// re-executes).  Returns false when the error is classified
  /// permanent, attempts are exhausted, or the backoff would overrun
  /// the deadline — the caller then fails the call.
  [[nodiscard]] bool backoff_and_retry(const std::exception_ptr& error);

  /// Records the successful attempt (closes the breaker's failure run).
  void note_success();

  /// Executions observed so far (failed attempts + the final success).
  /// Breaker-rejected attempts count as executions.
  [[nodiscard]] int attempts() const { return attempts_; }

  /// Total backoff actually slept, in seconds.
  [[nodiscard]] double backoff_total() const { return backoff_total_; }

 private:
  RetryPolicy policy_;
  const Clock* clock_;
  Sleeper* sleeper_;
  CircuitBreaker* breaker_;
  Rng rng_;
  double start_;
  int attempts_ = 0;
  double backoff_total_ = 0.0;
};

/// Outcome of a completed run_with_retry call.
struct [[nodiscard]] RetryOutcome {
  int attempts = 1;
  double backoff_seconds = 0.0;
};

/// Runs `fn` under `policy`: the synchronous retry loop used by
/// storage::ResilientBackend.  Returns the outcome on success; rethrows
/// the final error when attempts/deadline are exhausted or the error is
/// classified permanent.
template <typename Fn>
RetryOutcome run_with_retry(const RetryPolicy& policy, const Clock& clock,
                            Sleeper& sleeper, CircuitBreaker* breaker,
                            Fn&& fn) {
  RetrySession session(policy, &clock, &sleeper, breaker);
  for (;;) {
    try {
      session.check_breaker();
      fn();
      session.note_success();
      return RetryOutcome{session.attempts(), session.backoff_total()};
    } catch (...) {
      if (!session.backoff_and_retry(std::current_exception())) throw;
    }
  }
}

}  // namespace apio::resilience
