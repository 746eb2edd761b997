// Eventuals: completion objects in the style of Argobots' ABT_eventual.
//
// An Eventual is a one-shot completion flag with blocking wait and
// polling test.  The async VOL connector completes one per operation
// from its background stream; ordering between operations comes from
// the stream's FIFO pool, not from the eventuals.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>

#include "common/debug/lock_rank.h"

namespace apio::tasking {

class Eventual;
using EventualPtr = std::shared_ptr<Eventual>;

/// One-shot completion object.  Thread-safe.
///
/// Lifecycle: created pending → set() or set_error() exactly once →
/// waiters are released.
class Eventual {
 public:
  static EventualPtr make() { return std::make_shared<Eventual>(); }

  /// Creates an eventual that is already completed, for an operation
  /// that finished inline.
  static EventualPtr make_ready();

  /// Marks the eventual complete.  Must be called at most once (set or
  /// set_error).
  void set();

  /// Marks the eventual failed.  wait() rethrows the exception.
  void set_error(std::exception_ptr error);

  /// Blocks until completion; rethrows a stored error.
  void wait();

  /// Blocks until completion without rethrowing; use when draining a
  /// queue whose per-operation errors are reported elsewhere.
  void wait_ignore_error();

  /// Non-blocking completion probe.  Does not rethrow errors; use
  /// has_error()/wait() to observe them.
  bool test() const;

  /// True when completed with an error.
  bool has_error() const;

  /// The stored error, or nullptr when pending / completed cleanly.
  std::exception_ptr error() const;

 private:
  using Mutex = debug::RankedMutex<debug::LockRank::kTaskingEventual>;

  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  bool done_ = false;
  std::exception_ptr error_;
};

}  // namespace apio::tasking
