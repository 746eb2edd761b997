#include "tasking/execution_stream.h"

#include <atomic>

#include "common/debug/thread_role.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace apio::tasking {
namespace {

/// Process-wide stream numbering, used only to label trace lanes.
int next_stream_id() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

obs::Histogram& pop_wait_hist() {
  static auto& h = obs::Registry::instance().histogram("tasking.pop_wait_seconds");
  return h;
}

obs::Counter& tasks_run_counter() {
  static auto& c = obs::Registry::instance().counter("tasking.tasks_run");
  return c;
}

}  // namespace

ExecutionStream::ExecutionStream(PoolPtr pool) : pool_(std::move(pool)) {
  APIO_REQUIRE(pool_ != nullptr, "ExecutionStream requires a pool");
  thread_ = std::thread([this] { run(); });
}

ExecutionStream::~ExecutionStream() { shutdown(); }

void ExecutionStream::shutdown() {
  if (!pool_->closed()) pool_->close();
  if (thread_.joinable()) thread_.join();
}

void ExecutionStream::run() {
  // Tag the worker so task bodies can APIO_ASSERT_ON_STREAM(), and so
  // pmpi collectives abort if they are ever driven from a stream.
  debug::ScopedThreadRole role(debug::ThreadRole::kStream);
  obs::set_thread_stream(next_stream_id());
  for (;;) {
    // Idle time between tasks is the queue's dead air — the paper's
    // overlap efficiency is visible as pop-wait vs. task-run ratio.
    const bool timed = obs::enabled();
    const double wait_start = timed ? obs::steady_seconds() : 0.0;
    auto task = pool_->pop();
    if (timed) pop_wait_hist().record_seconds(obs::steady_seconds() - wait_start);
    if (!task) return;  // pool closed and drained
    try {
      (*task)();
      if (timed) tasks_run_counter().increment();
    } catch (const std::exception& e) {
      // Tasks are expected to route failures through their eventuals;
      // an escaped exception is a bug in the task, not the stream.
      APIO_LOG_ERROR("task escaped exception: " << e.what());
    }
  }
}

}  // namespace apio::tasking
