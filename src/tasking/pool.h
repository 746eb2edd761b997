// Task pools: FIFO work queues in the style of Argobots' ABT_pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "common/debug/lock_rank.h"

namespace apio::tasking {

/// Unit of work executed by an ExecutionStream.
using TaskFn = std::function<void()>;

/// Thread-safe FIFO queue of tasks.  Multiple producers, multiple
/// consumers.  close() releases blocked consumers; after close, push()
/// throws and pop() drains remaining tasks then returns nullopt.
///
/// Close/drain contract (pinned by ConcurrencyTest.PoolCloseRace): a
/// push() racing close() either enqueues fully — its task WILL be
/// drained by consumers — or throws StateError; no task is half
/// accepted or silently dropped.
class Pool {
 public:
  /// Enqueues a task.  Throws StateError if the pool is closed.
  void push(TaskFn task);

  /// Enqueues a task unless the pool is closed; returns false instead of
  /// throwing in that case.  The async VOL submits through it, so an op
  /// that races the connector's shutdown fails with its own error rather
  /// than the pool's.
  bool try_push(TaskFn task);

  /// Blocks for the next task.  Returns nullopt when the pool is closed
  /// and drained.
  std::optional<TaskFn> pop();

  /// Non-blocking pop; nullopt when empty (even if not closed).
  std::optional<TaskFn> try_pop();

  /// Marks the pool closed: producers are rejected, consumers drain.
  void close();

  bool closed() const;
  std::size_t size() const;

  /// Tasks accepted by push() over the pool's lifetime.
  std::uint64_t accepted() const;
  /// Tasks handed to consumers by pop()/try_pop() over the lifetime.
  std::uint64_t drained() const;

 private:
  void note_popped_locked();

  mutable debug::RankedMutex<debug::LockRank::kTaskingPool> mutex_;
  std::condition_variable_any cv_;
  std::deque<TaskFn> tasks_;
  bool closed_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t drained_ = 0;
};

using PoolPtr = std::shared_ptr<Pool>;

}  // namespace apio::tasking
