#include "storage/resilient_backend.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace apio::storage {
namespace {

const Clock& default_clock() {
  static WallClock clock;
  return clock;
}

obs::Counter& layer_retries_counter() {
  static auto& c = obs::Registry::instance().counter("storage.resilient.retries");
  return c;
}

}  // namespace

ResilientBackend::ResilientBackend(BackendPtr inner, ResilienceOptions options,
                                   const Clock* clock,
                                   resilience::Sleeper* sleeper)
    : Decorator(std::move(inner), "resilient"),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &default_clock()),
      sleeper_(sleeper != nullptr ? sleeper : &resilience::wall_sleeper()) {
  options_.retry.validate();
  if (options_.enable_breaker) {
    breaker_ = std::make_unique<resilience::CircuitBreaker>(
        options_.breaker, clock_, "storage:" + this->inner()->name());
  }
}

void ResilientBackend::around(obs::IoOp op, std::uint64_t /*offset*/,
                              std::uint64_t bytes, Transfer transfer) {
  if (op == obs::IoOp::kFlush) return run(transfer);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, bytes, "resilient");
  run(transfer);
}

void ResilientBackend::run(Transfer transfer) {
  const auto outcome = resilience::run_with_retry(
      options_.retry, *clock_, *sleeper_, breaker_.get(), transfer);
  if (outcome.attempts > 1) {
    const auto extra = static_cast<std::uint64_t>(outcome.attempts - 1);
    retries_.fetch_add(extra, std::memory_order_relaxed);
    if (obs::enabled()) layer_retries_counter().add(extra);
  }
}

}  // namespace apio::storage
