// Weighted max-min fair admission onto a shared storage channel.
//
// The ThrottledBackend models one Lustre allocation; when N tenants
// hammer it concurrently, arrival order decides who gets served — the
// classic noisy-neighbour failure.  FairScheduler interposes an
// admission gate: requests queue per tenant, and grants onto the
// channel (one at a time — one modelled pipe) are issued in
// start-time-fair-queuing order over *bytes*:
//
//   at grant:  start        = max(tenant.vtime, V)
//              V            = start          (bulk grants only)
//              tenant.vtime = start + bytes / weight
//
// where V is the global virtual time.  Backlogged tenants therefore
// receive channel bytes proportional to their weights (max-min), and a
// tenant going idle forfeits — its vtime jumps forward to V on its next
// arrival, so it cannot bank credit and burst past active tenants.
//
// On top of the fair ordering, two lanes: every queued kPriority
// request (metadata, flushes) is granted before any kBulk request,
// across all tenants; priority bytes are still charged to the owning
// tenant's vtime.  Each tenant+lane queue is FIFO.
//
// Threading: submit()/admit() are called from application threads and
// async execution streams; complete() from whichever thread finishes
// the transfer.  The queue mutex (rank kSchedQueue, just below the
// storage wrappers) is never held across a transfer — wait() blocks on
// a condition variable with the lock released, and the grant-holder
// performs the inner storage op outside the scheduler entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "sched/io_request.h"

namespace apio::sched {

/// One admitted request's grant state.  Returned by submit(); the
/// holder passes it to wait() (blocks until granted) and complete()
/// (frees the channel slot).  Single-use.
class Ticket {
 public:
  /// True once a channel slot has been granted (acquire: the grant
  /// happens-before everything the granted thread does).
  [[nodiscard]] bool granted() const {
    return granted_.load(std::memory_order_acquire);
  }

  /// The submitted request, tenant resolved (never empty).
  [[nodiscard]] const IoRequest& request() const { return request_; }

  /// Seconds from submit to grant; 0 until granted.
  [[nodiscard]] double wait_seconds() const {
    return granted() ? grant_time_ - submit_time_ : 0.0;
  }

  /// Scheduler-wide submission sequence number (arrival order).
  [[nodiscard]] std::uint64_t seq() const { return seq_; }

 private:
  friend class FairScheduler;

  IoRequest request_;
  std::uint64_t seq_ = 0;
  double submit_time_ = 0.0;
  double grant_time_ = 0.0;
  std::atomic<bool> granted_{false};
  std::atomic<bool> completed_{false};
};

using TicketPtr = std::shared_ptr<Ticket>;

/// Per-tenant accounting, exported by stats().
struct TenantStats {
  double weight = 1.0;
  std::uint64_t submitted_ops = 0;
  std::uint64_t submitted_bytes = 0;
  std::uint64_t dispatched_ops = 0;
  std::uint64_t dispatched_bytes = 0;
  /// Dispatched bytes split by lane (index by static_cast<int>(Lane)).
  /// Fairness bounds apply to the bulk lane; the priority lane trades
  /// byte-fairness for bounded latency by design.
  std::uint64_t lane_bytes[kLanes] = {0, 0};
  std::uint64_t priority_ops = 0;       ///< dispatched via kPriority
  std::uint64_t queue_depth = 0;        ///< currently queued (ungranted)
  std::uint64_t max_queue_depth = 0;
  double wait_seconds_total = 0.0;      ///< submit→grant, summed
  /// Per-lane submit→grant wait samples (capped; see kMaxWaitSamples).
  /// Index by static_cast<int>(Lane).
  std::vector<double> wait_samples[kLanes];
};

struct SchedStats {
  std::uint64_t submitted_ops = 0;
  std::uint64_t dispatched_ops = 0;
  std::uint64_t dispatched_bytes = 0;
  double virtual_time = 0.0;
  std::map<TenantId, TenantStats> tenants;
};

/// The admission gate.  Create one per shared channel (per modelled
/// PFS), share it between every QosBackend/connector draining into that
/// channel.
class FairScheduler {
 public:
  /// Wait samples kept per tenant+lane for percentile reporting;
  /// beyond the cap new samples are dropped (totals keep counting).
  static constexpr std::size_t kMaxWaitSamples = 65536;

  /// `clock` is the time source for waits; null means the process wall
  /// clock.
  explicit FairScheduler(const Clock* clock = nullptr);
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Declares `tenant` with a fair-share weight (> 0).  Unregistered
  /// tenants are auto-registered at weight 1 on first submit.
  /// Re-registering adjusts the weight.
  void register_tenant(const TenantId& tenant, double weight);

  /// Enqueues `request` for admission; never blocks.  The empty tenant
  /// resolves to kDefaultTenant.
  TicketPtr submit(const IoRequest& request);

  /// Blocks until `ticket` is granted a channel slot (or the scheduler
  /// is closed, which grants everything so drains cannot wedge).
  void wait(const TicketPtr& ticket);

  /// Releases `ticket`'s channel slot and dispatches the next request.
  /// Must be called exactly once per granted ticket.
  void complete(const TicketPtr& ticket);

  /// submit() + wait() — the common synchronous admission path.
  /// The caller performs the transfer, then calls complete().
  TicketPtr admit(const IoRequest& request);

  /// Grants every queued and future request immediately.  Used at
  /// teardown so in-flight drains never block on a dead scheduler.
  void close();

  [[nodiscard]] bool closed() const;

  [[nodiscard]] SchedStats stats() const;

 private:
  struct Tenant;
  struct State;

  void dispatch_locked(State& state);

  std::unique_ptr<State> state_;
};

using FairSchedulerPtr = std::shared_ptr<FairScheduler>;

}  // namespace apio::sched
