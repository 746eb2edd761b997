// apio::sched — the first-class submission API for backend work.
//
// Before this layer, every rank and every background stream drained its
// operations straight into storage::Backend as anonymous closures: the
// storage target had no idea *whose* bytes it was moving, so one greedy
// tenant (a checkpoint burst, a bulk training-data reader) could starve
// everyone sharing the modelled Lustre allocation.  The paper measures
// a single job; a production deployment serves many.
//
// An IoRequest names the work before it reaches storage: which tenant
// issued it, which lane it rides (latency-sensitive metadata/flush vs
// bulk data), how many bytes it moves, and — optionally — the absolute
// deadline it inherits from the issue-anchored resilience::RetryPolicy
// budget.  sched::FairScheduler (fair_scheduler.h) admits these
// requests onto the shared storage channel in weighted max-min order;
// storage::QosBackend builds them at the decorator boundary from the
// calling thread's SubmissionContext.
#pragma once

#include <cstdint>
#include <string>

#include "obs/record.h"
#include "resilience/retry.h"

namespace apio::sched {

/// Tenant identity: one fair-share account (a job, a user, a service).
/// Human-readable on purpose — it keys metrics names and diagnostics.
using TenantId = std::string;

/// Tenant of work submitted with no explicit identity bound.
inline constexpr const char* kDefaultTenant = "default";

/// Dispatch lane.  kPriority (metadata, flushes, latency-sensitive
/// reads) is always served before kBulk across *all* tenants; bulk data
/// competes under weighted max-min fairness.  Priority bytes are still
/// charged to the tenant's virtual time, so a priority-flooding tenant
/// pays for its lane use in the bulk competition.
enum class Lane : std::uint8_t { kPriority = 0, kBulk = 1 };

inline constexpr int kLanes = 2;

const char* to_string(Lane lane);

/// One unit of backend work submitted for admission.
struct IoRequest {
  TenantId tenant;                  ///< "" resolves to kDefaultTenant
  Lane lane = Lane::kBulk;
  obs::IoOp op = obs::IoOp::kWrite; ///< diagnostic only
  /// Bytes the granted transfer will move; the fairness currency.
  /// Zero-byte requests (flushes) are admitted but charge nothing.
  std::uint64_t bytes = 0;
  /// Absolute deadline in seconds on the scheduler's clock; 0 = none.
  /// Requests with earlier deadlines are served first within their
  /// tenant+lane queue (FIFO among deadline-free requests), and a grant
  /// issued past its deadline counts as a deadline miss.
  double deadline = 0.0;

  /// Issue-anchored deadline from a retry policy: the same budget that
  /// bounds the request's retries bounds its queueing, so a retried
  /// attempt re-enters admission with its *original* anchor and sorts
  /// ahead of younger work.  Returns 0 (no deadline) when the policy
  /// has none.
  static double deadline_from(const resilience::RetryPolicy& policy,
                              double issue_time) {
    return policy.deadline_seconds > 0.0
               ? issue_time + policy.deadline_seconds
               : 0.0;
  }
};

/// Submission identity bound to the calling thread.  QosBackend reads
/// it at the decorator boundary; the async connector captures it at
/// issue time and re-binds it on the background stream around the
/// actual storage transfer, so admission attributes work to the tenant
/// that *issued* it, not to the stream that happens to drain it.
struct SubmissionContext {
  TenantId tenant;          ///< "" resolves to kDefaultTenant
  Lane lane = Lane::kBulk;  ///< lane for data ops (flushes stay priority)
  double deadline = 0.0;    ///< absolute, scheduler clock; 0 = none
};

/// The calling thread's current submission binding; null when unbound.
const SubmissionContext* current_submission();

/// The bound submission's tenant; kDefaultTenant when unbound or unnamed.
TenantId current_tenant();

/// RAII binding of a SubmissionContext to the current thread.  Nests:
/// the previous binding is restored on destruction (the adaptive
/// connector may re-bind around an inner connector's issue path).
class ScopedSubmission {
 public:
  explicit ScopedSubmission(SubmissionContext context);
  ~ScopedSubmission();

  ScopedSubmission(const ScopedSubmission&) = delete;
  ScopedSubmission& operator=(const ScopedSubmission&) = delete;

 private:
  SubmissionContext context_;
  const SubmissionContext* previous_;
};

}  // namespace apio::sched
