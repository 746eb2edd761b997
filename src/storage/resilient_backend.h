// ResilientBackend: retry/backoff decorator for flaky storage, and the
// stack's only retry path.
//
// Wraps another backend and re-executes failed reads/writes/flushes
// under a RetryPolicy (bounded attempts, exponential backoff with
// seeded jitter, a per-call deadline), with an optional circuit breaker
// that sheds load during a sustained outage.  Truncate is a rare
// metadata operation and passes through unretried.  It serves every
// connector alike: under an AsyncConnector the retries run inline on
// the connector's one background stream, so the op's successors wait
// them out and backoff stalls the FIFO.
//
// TransientIoError (BreakerOpenError included) is retried; any other
// error only when the policy sets retry_permanent.  Time comes from an
// injected Clock and backoff sleeps go through a Sleeper, so tests
// inject a ManualClock as both and never wall-sleep.
//
// Each call draws its own jitter stream, seeded from
// RetryPolicy::kJitterSeed plus the backend's call number, so
// concurrent callers retrying one sick target do not all sleep the
// same delays, while a fresh, identically driven backend replays the
// same schedule.
//
// A failed vectored batch is retried WHOLE, as one write_v/read_v:
// positional transfers are idempotent, so re-sending extents that had
// already landed is harmless, and write_v throws without a byte count,
// so retrying only the unfinished suffix would need partial-progress
// reporting through every layer.  The cost of the simpler rule: under a
// fault pattern that recurs within one batch — a per-extent fault
// injector failing every N-th call with N no larger than the batch's
// extent count — every attempt of the batch faults, and the retry
// budget can run out where per-extent retries would have finished.
//
// Metrics (recorded when obs is enabled):
//   io.retry_backoff_seconds   histogram of individual backoff delays
//   io.deadline_exhausted      counter, retries abandoned by deadline
// The retry count is retries() and the breaker's state and trips are
// CircuitBreaker's; the registry holds no copy of either.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "common/error.h"
#include "common/rng.h"
#include "storage/decorator.h"

namespace apio::storage {

/// Retry policy.  The default performs a single attempt (no retries).
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
  /// Base of every call's jitter seed (plus the backend's call number).
  static constexpr std::uint64_t kJitterSeed = 0x5EEDBACCull;
  /// Per-call time budget on the injected clock, measured from the
  /// start of the storage call.  A retry whose backoff would overrun
  /// the deadline is abandoned instead of slept.  0 disables it.
  double deadline_seconds = 0.0;
  /// When true, errors other than TransientIoError are retried too
  /// (for backends whose plain IoErrors are known to be flaky).
  bool retry_permanent = false;

  /// Backoff for the `failure_index`-th failure (1-based):
  /// base * multiplier^(failure_index-1), clamped, jittered via `rng`.
  double backoff_for(int failure_index, Rng& rng) const;

  /// Throws InvalidArgumentError on nonsensical values.
  void validate() const;
};

/// Breaker states (CircuitBreaker::state()):
///   kClosed   normal operation; consecutive failures are counted.
///   kOpen     tripped: allow() rejects until `open_seconds` of the
///             injected clock have elapsed.
///   kHalfOpen cooldown elapsed: probes are allowed; the first success
///             closes the breaker, the first failure re-trips it.
enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Thrown when the breaker rejects an attempt.  Derives
/// TransientIoError: an open breaker is by definition a condition that
/// clears with time, so policies retry through it.
class BreakerOpenError : public TransientIoError {
 public:
  using TransientIoError::TransientIoError;
};

struct BreakerOptions {
  /// Consecutive failures that trip the breaker; <= 0 builds no breaker
  /// in a ResilientBackend (a CircuitBreaker given it never trips).
  int failure_threshold = 5;
  /// Cooldown before an open breaker admits a half-open probe, in
  /// seconds on the injected clock.
  double open_seconds = 1.0;
};

/// Stops hammering a storage target that is failing consistently, the
/// standard production pattern for shared PFS deployments where a sick
/// OST punishes every rank that keeps retrying against it.  The
/// half-open state is permissive — every caller that observes it may
/// probe.  With the single background stream of the async VOL that is
/// at most one probe in flight anyway, and it keeps the breaker free of
/// probe-ownership bookkeeping.
class CircuitBreaker {
 public:
  CircuitBreaker(BreakerOptions options, const Clock* clock);

  /// True when an attempt may proceed.  An open breaker whose cooldown
  /// has elapsed transitions to half-open and admits the caller.
  bool allow();

  /// Records a successful attempt: resets the failure run and closes.
  void on_success();

  /// Records a failed attempt: trips from closed once the threshold of
  /// consecutive failures is reached, and re-trips from half-open
  /// immediately (a failed probe restarts the cooldown).
  void on_failure();

  BreakerState state() const;

  /// Times the breaker has transitioned into kOpen.
  std::uint64_t trips() const;

  /// Current run of consecutive failures.
  int consecutive_failures() const;

 private:
  mutable debug::RankedMutex<debug::LockRank::kResilienceBreaker> mutex_;
  BreakerOptions options_;
  const Clock* clock_;

  BreakerState state_ = BreakerState::kClosed;
  int failures_ = 0;
  double opened_at_ = 0.0;
  std::uint64_t trips_ = 0;

  void transition_locked(BreakerState next);
};

struct ResilienceOptions {
  RetryPolicy retry;
  BreakerOptions breaker;
};

class ResilientBackend final : public Decorator {
 public:
  /// `clock` defaults to the wall clock and `sleeper` to the blocking
  /// wall sleeper; tests inject a ManualClock as both so backoff never
  /// wall-sleeps.  Throws InvalidArgumentError on a nonsensical policy.
  ResilientBackend(BackendPtr inner, ResilienceOptions options,
                   const Clock* clock = nullptr, Sleeper* sleeper = nullptr);

  /// Re-executions that reached the inner backend across all calls so
  /// far, calls that failed for good included (a retry an open breaker
  /// rejects reaches nothing and is not one).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// Null when breaker.failure_threshold <= 0.
  CircuitBreaker* breaker() const { return breaker_.get(); }

 private:
  void around(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes,
              Transfer transfer) override;
  void run(Transfer transfer);

  const RetryPolicy policy_;
  const Clock* clock_;
  Sleeper* sleeper_;
  std::unique_ptr<CircuitBreaker> breaker_;
  std::atomic<std::uint64_t> retries_{0};
  /// Calls so far; numbers each call's jitter stream.
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace apio::storage
