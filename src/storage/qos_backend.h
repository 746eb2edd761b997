// QosBackend: fair-share admission decorator.
//
// Wraps another backend and routes every data operation through a
// shared sched::FairScheduler before it reaches the inner store.  The
// scheduler serialises (or bounds) concurrent access to the modelled
// channel and orders waiting requests by weighted max-min fairness —
// see sched/fair_scheduler.h for the math.
//
// Tenant attribution comes from the calling thread's
// sched::SubmissionContext (bound by vol::AsyncConnector around its
// drain path, or by ScopedSubmission directly in application code);
// unbound threads are charged to QosOptions::default_tenant.  Flushes
// ride the priority lane by default — they are the latency-sensitive
// barrier operations a bulk tenant must not starve.
//
// A vectored write_v/read_v is admitted as ONE request for the total
// byte count, mirroring ThrottledBackend's one-modelled-request-per-
// call accounting: aggregation buys one queue pass, not per-extent
// admission.
//
// Stacking order: QosBackend goes OUTERMOST (qos(resilient(throttled(
// leaf)))) so retried attempts re-enter admission and cannot hog the
// channel while backing off — storage::BackendStack enforces this.
#pragma once

#include <memory>

#include "sched/fair_scheduler.h"
#include "storage/decorator.h"

namespace apio::storage {

struct QosOptions {
  /// Tenant charged when the calling thread has no submission binding.
  sched::TenantId default_tenant = sched::kDefaultTenant;
  /// Lane for flush(); metadata barriers default to priority.
  sched::Lane flush_lane = sched::Lane::kPriority;
};

/// close() and truncate() take no admission slot: close() is a
/// lifecycle announcement (any cache drain it triggers arrives as
/// ordinary write_v/flush traffic from the outer tier and is admitted
/// there), and truncate() is a rare metadata operation that must be
/// externally serialised anyway, per the Backend contract.
class QosBackend final : public Decorator {
 public:
  QosBackend(BackendPtr inner, sched::FairSchedulerPtr scheduler,
             QosOptions options = {});

  const sched::FairSchedulerPtr& scheduler() const { return scheduler_; }
  const QosOptions& options() const { return options_; }

 private:
  void around(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes,
              Transfer transfer) override;
  sched::IoRequest request_for(obs::IoOp op, std::uint64_t bytes) const;

  sched::FairSchedulerPtr scheduler_;
  QosOptions options_;
};

}  // namespace apio::storage
