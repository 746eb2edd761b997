// ResilientBackend: retry/backoff decorator for flaky storage, and the
// stack's only retry path.
//
// Wraps another backend and re-executes failed reads/writes/flushes
// under a resilience::RetryPolicy, with an optional per-backend circuit
// breaker that sheds load during a sustained outage.  Truncate is a
// rare metadata operation and passes through unretried.  It serves
// every connector alike: under an AsyncConnector the retries run inline
// on the connector's one background stream, so the op's successors wait
// them out and backoff stalls the FIFO.
//
// Each call draws its own jitter stream, seeded from the policy's
// jitter_seed plus the backend's call number, so concurrent callers
// retrying one sick target do not all sleep the same delays, while a
// fresh, identically driven backend replays the same schedule.
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
// Retry cost is recorded through the shared io.* resilience metrics
// (io.retries, io.retry_backoff_seconds, io.deadline_exhausted,
// io.breaker_*) plus a layer-local storage.resilient.retries counter.
#pragma once

#include <atomic>
#include <memory>

#include "common/clock.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry.h"
#include "storage/decorator.h"

namespace apio::storage {

struct ResilienceOptions {
  resilience::RetryPolicy retry;
  resilience::BreakerOptions breaker;
  /// When false, no breaker is constructed and retries run unguarded.
  bool enable_breaker = true;
};

class ResilientBackend final : public Decorator {
 public:
  /// `clock` defaults to the wall clock and `sleeper` to the blocking
  /// wall sleeper; tests inject a resilience::ManualClock as both so
  /// backoff never wall-sleeps.
  ResilientBackend(BackendPtr inner, ResilienceOptions options,
                   const Clock* clock = nullptr,
                   resilience::Sleeper* sleeper = nullptr);

  /// Re-executions that reached the inner backend across all calls so
  /// far, calls that failed for good included (a retry an open breaker
  /// rejects reaches nothing and is not one).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// Null when the breaker is disabled.
  resilience::CircuitBreaker* breaker() const { return breaker_.get(); }

  const ResilienceOptions& options() const { return options_; }

 private:
  void around(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes,
              Transfer transfer) override;
  void run(Transfer transfer);

  ResilienceOptions options_;
  const Clock* clock_;
  resilience::Sleeper* sleeper_;
  std::unique_ptr<resilience::CircuitBreaker> breaker_;
  std::atomic<std::uint64_t> retries_{0};
  /// Calls so far; numbers each call's jitter stream.
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace apio::storage
