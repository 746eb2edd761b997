#include "storage/qos_backend.h"

#include "common/error.h"
#include "obs/trace_context.h"

namespace apio::storage {

namespace {

/// Holds one admission grant for the duration of the inner transfer;
/// releases the channel slot on every exit path, including throws.
/// The time blocked inside admit() is the queue-wait phase of the
/// bound request's trace.
class Admission {
 public:
  Admission(sched::FairScheduler& scheduler, const sched::IoRequest& request)
      : scheduler_(scheduler) {
    obs::trace::ScopedPhase wait(obs::trace::Phase::kQueueWait, request.bytes);
    ticket_ = scheduler_.admit(request);
  }
  ~Admission() { scheduler_.complete(ticket_); }

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

 private:
  sched::FairScheduler& scheduler_;
  sched::TicketPtr ticket_;
};

}  // namespace

QosBackend::QosBackend(BackendPtr inner, sched::FairSchedulerPtr scheduler)
    : Decorator(std::move(inner), "qos"), scheduler_(std::move(scheduler)) {
  APIO_REQUIRE(scheduler_ != nullptr, "QosBackend needs a scheduler");
}

sched::IoRequest QosBackend::request_for(obs::IoOp op,
                                         std::uint64_t bytes) const {
  sched::IoRequest request;
  request.op = op;
  request.bytes = bytes;
  if (const sched::SubmissionContext* ctx = sched::current_submission()) {
    request.tenant = ctx->tenant;
    request.lane = ctx->lane;
  }
  if (request.tenant.empty()) request.tenant = sched::kDefaultTenant;
  if (op == obs::IoOp::kFlush) request.lane = sched::Lane::kPriority;
  return request;
}

void QosBackend::around(obs::IoOp op, std::uint64_t /*offset*/,
                        std::uint64_t bytes, Transfer transfer) {
  Admission grant(*scheduler_, request_for(op, bytes));
  obs::trace::ScopedPhase held(obs::trace::Phase::kAdmission, bytes);
  transfer();
}

}  // namespace apio::storage
