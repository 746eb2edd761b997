#include "storage/throttled_backend.h"

#include <chrono>
#include <thread>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/trace_context.h"

namespace apio::storage {
namespace {

double steady_now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

void sleep_seconds(double s) {
  if (s <= 0.0) return;
  // Deliberate: the throttle models PFS latency by blocking the calling
  // thread, exactly as a congested parallel file system does.
  std::this_thread::sleep_for(  // apio-lint: allow(thread-context)
      std::chrono::duration<double>(s));
}

}  // namespace

ThrottledBackend::ThrottledBackend(BackendPtr inner, ThrottleParams params)
    : Decorator(std::move(inner), "throttled"), params_(params) {
  APIO_REQUIRE(params_.bandwidth > 0, "throttle bandwidth must be positive");
  APIO_REQUIRE(params_.time_scale >= 0, "time_scale must be >= 0");
}

void ThrottledBackend::throttle(std::uint64_t bytes) {
  const double delay = params_.latency + static_cast<double>(bytes) / params_.bandwidth;
  if (params_.shared_channel) {
    // Reserve a slot on the shared channel: operations queue behind each
    // other just as concurrent clients of one PFS allocation do.
    double wait = 0.0;
    {
      std::lock_guard lock(channel_mutex_);
      const double now = steady_now();
      const double start = std::max(now, channel_free_at_);
      channel_free_at_ = start + delay * params_.time_scale;
      modelled_delay_ += delay;
      wait = channel_free_at_ - now;
      // The shared channel only ever books time forward; a regression
      // here would let concurrent ops overlap their budgeted slots.
      APIO_INVARIANT(wait >= 0.0, "shared-channel reservation moved backwards");
    }
    sleep_seconds(wait);
  } else {
    {
      std::lock_guard lock(channel_mutex_);
      modelled_delay_ += delay;
    }
    sleep_seconds(delay * params_.time_scale);
  }
}

void ThrottledBackend::around(obs::IoOp op, std::uint64_t /*offset*/,
                              std::uint64_t bytes, Transfer transfer) {
  if (op == obs::IoOp::kFlush) return transfer();
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, bytes, "throttled");
  throttle(bytes);
  transfer();
}

double ThrottledBackend::modelled_delay_seconds() const {
  std::lock_guard lock(channel_mutex_);
  return modelled_delay_;
}

}  // namespace apio::storage
