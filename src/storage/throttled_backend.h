// ThrottledBackend: wraps another backend and delays each transfer
// according to a bandwidth/latency budget, so that laptop-scale runs of
// the real library exhibit PFS-like timing (a slow shared file system
// under a fast local one).  The throttle blocks the *calling* thread,
// exactly as a blocking write to a congested PFS does — which is what
// makes sync-vs-async differences observable in real executions.
#pragma once

#include "common/debug/lock_rank.h"
#include "storage/decorator.h"

namespace apio::storage {

/// Timing budget for the throttle.
struct ThrottleParams {
  /// Modelled bandwidth in bytes/s for reads and writes.
  double bandwidth = 1e9;
  /// Fixed per-operation latency in seconds.
  double latency = 0.0;
  /// Wall-time scale: modelled_delay * time_scale is actually slept.
  /// 1.0 reproduces modelled time; tests use small scales to run fast.
  double time_scale = 1.0;
  /// When true, concurrent operations share the bandwidth budget
  /// (serialised token bucket); when false each op is delayed
  /// independently.
  bool shared_channel = true;
};

/// Each read/write is charged latency + bytes/bandwidth; flushes pass
/// unthrottled.  A vectored call is one aggregated request on the
/// modelled PFS: the budget is charged once for its total rather than
/// per extent, which is exactly the cost reduction aggregation buys on
/// a latency-bound file system.
class ThrottledBackend final : public Decorator {
 public:
  ThrottledBackend(BackendPtr inner, ThrottleParams params);

  /// Total modelled delay injected so far, in modelled seconds.
  double modelled_delay_seconds() const;

  const ThrottleParams& params() const { return params_; }

 private:
  void around(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes,
              Transfer transfer) override;

  ThrottleParams params_;

  mutable debug::RankedMutex<debug::LockRank::kStorageWrapper> channel_mutex_;
  /// Wall-clock time (steady seconds) at which the shared channel frees up.
  double channel_free_at_ = 0.0;
  double modelled_delay_ = 0.0;

  void throttle(std::uint64_t bytes);
};

}  // namespace apio::storage
