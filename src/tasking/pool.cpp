#include "tasking/pool.h"

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace apio::tasking {
namespace {

obs::Gauge& queue_depth_gauge() {
  static auto& g = obs::Registry::instance().gauge("tasking.queue_depth");
  return g;
}

obs::Counter& pops_counter() {
  static auto& c = obs::Registry::instance().counter("tasking.pops");
  return c;
}

}  // namespace

/// Shared bookkeeping for both pop variants — blocking pop() and the
/// non-blocking try_pop() must emit
/// identical queue-depth/pop metrics or profiles develop blind spots.
/// Called with mutex_ held, after a task was removed from the queue.
void Pool::note_popped_locked() {
  ++drained_;
  APIO_INVARIANT(drained_ <= accepted_, "Pool drained more tasks than accepted");
  if (obs::enabled()) {
    queue_depth_gauge().set(static_cast<std::int64_t>(tasks_.size()));
    pops_counter().increment();
  }
}

void Pool::push(TaskFn task) {
  if (!try_push(std::move(task))) {
    throw StateError("Pool::push() on closed pool");
  }
}

bool Pool::try_push(TaskFn task) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return false;
    tasks_.push_back(std::move(task));
    ++accepted_;
    if (obs::enabled()) {
      auto& gauge = queue_depth_gauge();
      gauge.set(static_cast<std::int64_t>(tasks_.size()));
      gauge.note_watermark();
    }
  }
  cv_.notify_one();
  return true;
}

std::optional<TaskFn> Pool::pop() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return closed_ || !tasks_.empty(); });
  if (tasks_.empty()) return std::nullopt;
  TaskFn task = std::move(tasks_.front());
  tasks_.pop_front();
  note_popped_locked();
  return task;
}

std::optional<TaskFn> Pool::try_pop() {
  std::lock_guard lock(mutex_);
  if (tasks_.empty()) return std::nullopt;
  TaskFn task = std::move(tasks_.front());
  tasks_.pop_front();
  note_popped_locked();
  return task;
}

void Pool::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Pool::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t Pool::size() const {
  std::lock_guard lock(mutex_);
  return tasks_.size();
}

std::uint64_t Pool::accepted() const {
  std::lock_guard lock(mutex_);
  return accepted_;
}

std::uint64_t Pool::drained() const {
  std::lock_guard lock(mutex_);
  return drained_;
}

}  // namespace apio::tasking
