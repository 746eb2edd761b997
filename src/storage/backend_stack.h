// BackendStack: fluent builder for backend decorator chains.
//
// Hand-nesting make_shared calls gets the decorator ORDER wrong
// silently — a cache nested inside qos spends admission slots on
// node-local staging copies.  The builder makes the order part of the
// API:
//
//   auto pfs = storage::BackendStack::posix(path)
//                  .throttled(model)      // PFS timing model
//                  .resilient(policy)     // retries under the throttle
//                  .qos(scheduler)        // admission over the PFS tier
//                  .cached(cache)         // burst buffer outermost
//                  .build();
//
// Layer order (inner to outer) is leaf < throttled < resilient < qos <
// cached; each call checks (APIO_INVARIANT, so a debug-build abort)
// that it is applied outside every layer already present.  Skipping
// layers is fine; adding one twice or out of order is not.  Because
// resilient sits under qos, a call is admitted once and its retries,
// backoff included, run inside that one grant.
//
// The cache sits OUTSIDE qos deliberately: cache hits and staged
// writes must bypass PFS admission and the throttle entirely (they
// never touch the PFS), while cache drains arrive at the inner tier
// as ordinary write_v/flush traffic — admitted, retried and throttled
// like any other PFS transfer.  Nesting a cache inside qos would
// spend admission slots on node-local staging copies.
#pragma once

#include <string>

#include "storage/backend.h"
#include "storage/cached_backend.h"
#include "storage/posix_backend.h"
#include "storage/qos_backend.h"
#include "storage/resilient_backend.h"
#include "storage/throttled_backend.h"

namespace apio::storage {

class BackendStack {
 public:
  /// Fresh in-memory leaf (tests, staging, modelled PFS under a throttle).
  static BackendStack memory();

  /// POSIX file leaf.
  static BackendStack posix(const std::string& path,
                            PosixBackend::Mode mode =
                                PosixBackend::Mode::kCreateTruncate);

  /// Adopts an existing backend as the leaf (e.g. a FaultyBackend the
  /// test keeps a handle to for fault planning).
  static BackendStack wrap(BackendPtr leaf);

  /// PFS timing model layer.
  BackendStack& throttled(ThrottleParams params);

  /// Retry/backoff/breaker layer.  `clock`/`sleeper` default to wall
  /// time; tests inject a ManualClock as both.
  BackendStack& resilient(ResilienceOptions options,
                          const Clock* clock = nullptr,
                          Sleeper* sleeper = nullptr);

  /// Fair-share admission layer over the PFS tier.
  BackendStack& qos(sched::FairSchedulerPtr scheduler);

  /// Write-back burst-buffer tier; always outermost (hits bypass
  /// admission and throttle; drains pass through them).  The cache
  /// stages into its own paged memory store.
  BackendStack& cached(CacheOptions options = {});

  /// The finished chain.  The builder stays usable as a handle but adds
  /// no further layers below ones already applied.
  [[nodiscard]] BackendPtr build() const;

 private:
  /// Decorator order, inner to outer.  Each layer must be applied at a
  /// strictly higher stage than everything already present.
  enum class Stage : int {
    kLeaf = 0,
    kThrottled = 1,
    kResilient = 2,
    kQos = 3,
    kCached = 4,
  };

  explicit BackendStack(BackendPtr leaf);

  void require_order(Stage next);

  BackendPtr backend_;
  Stage stage_ = Stage::kLeaf;
};

}  // namespace apio::storage
