#include "storage/backend_stack.h"

#include "common/debug/invariant.h"
#include "common/error.h"
#include "storage/memory_backend.h"

namespace apio::storage {

BackendStack::BackendStack(BackendPtr leaf) : backend_(std::move(leaf)) {
  APIO_REQUIRE(backend_ != nullptr, "BackendStack needs a leaf backend");
}

BackendStack BackendStack::memory() {
  return BackendStack(std::make_shared<MemoryBackend>());
}

BackendStack BackendStack::posix(const std::string& path,
                                 PosixBackend::Mode mode) {
  return BackendStack(std::make_shared<PosixBackend>(path, mode));
}

BackendStack BackendStack::wrap(BackendPtr leaf) {
  return BackendStack(std::move(leaf));
}

void BackendStack::require_order(Stage next) {
  APIO_INVARIANT(static_cast<int>(next) > static_cast<int>(stage_),
                 "backend decorator order is leaf < throttled < resilient < "
                 "qos < cached, each layer at most once");
  stage_ = next;
}

BackendStack& BackendStack::throttled(ThrottleParams params) {
  require_order(Stage::kThrottled);
  backend_ = std::make_shared<ThrottledBackend>(std::move(backend_), params);
  return *this;
}

BackendStack& BackendStack::resilient(ResilienceOptions options,
                                      const Clock* clock,
                                      resilience::Sleeper* sleeper) {
  require_order(Stage::kResilient);
  backend_ = std::make_shared<ResilientBackend>(std::move(backend_),
                                                std::move(options), clock,
                                                sleeper);
  return *this;
}

BackendStack& BackendStack::qos(sched::FairSchedulerPtr scheduler,
                                QosOptions options) {
  require_order(Stage::kQos);
  backend_ = std::make_shared<QosBackend>(
      std::move(backend_), std::move(scheduler), std::move(options));
  return *this;
}

BackendStack& BackendStack::cached(CacheOptions options, BackendPtr staging) {
  require_order(Stage::kCached);
  backend_ = std::make_shared<CachedBackend>(std::move(backend_), options,
                                             std::move(staging));
  return *this;
}

BackendPtr BackendStack::build() const { return backend_; }

}  // namespace apio::storage
