// Wall-clock and manual-clock utilities.
//
// Code that reads time (retry deadlines, the circuit breaker, the fair
// scheduler, the async connector) goes through the Clock interface, and
// code that waits (retry backoff) sleeps through a Sleeper, so tests
// inject a ManualClock as both and never wall-sleep.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace apio {

/// Abstract monotonic clock in seconds.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in seconds since an arbitrary epoch.
  virtual double now() const = 0;
};

/// Real monotonic wall clock.
class WallClock final : public Clock {
 public:
  double now() const override {
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
  }
};

/// Where backoff delays go.  The wall implementation blocks the calling
/// thread; tests inject a virtual-time implementation instead.
class Sleeper {
 public:
  virtual ~Sleeper() = default;
  virtual void sleep(double seconds) = 0;
};

/// Process-wide sleeper that blocks the calling thread for real.
Sleeper& wall_sleeper();

/// Thread-safe manually-advanced clock that doubles as a Sleeper:
/// sleep() advances virtual time instead of blocking and records every
/// request, so retry/backoff/deadline tests run in zero wall time and
/// can assert the exact backoff schedule.  Time is kept in whole
/// nanoseconds, each step rounded to the nearest one.
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

}  // namespace apio
