#include "sched/fair_scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/error.h"
#include "obs/metrics.h"

namespace apio::sched {

namespace {

const Clock& default_clock() {
  static WallClock clock;
  return clock;
}

}  // namespace

const char* to_string(Lane lane) {
  return lane == Lane::kPriority ? "priority" : "bulk";
}

namespace {
thread_local const SubmissionContext* t_submission = nullptr;
}  // namespace

const SubmissionContext* current_submission() { return t_submission; }

TenantId current_tenant() {
  return t_submission != nullptr && !t_submission->tenant.empty()
             ? t_submission->tenant
             : TenantId(kDefaultTenant);
}

ScopedSubmission::ScopedSubmission(SubmissionContext context)
    : context_(std::move(context)), previous_(t_submission) {
  t_submission = &context_;
}

ScopedSubmission::~ScopedSubmission() { t_submission = previous_; }

// ---------------------------------------------------------------------------
// FairScheduler

struct FairScheduler::Tenant {
  double weight = 1.0;
  /// Virtual finish time of this tenant's last charged grant.
  double vtime = 0.0;
  /// Queued tickets per lane, in arrival order.
  std::deque<TicketPtr> queue[kLanes];
  TenantStats stats;
  /// The tenant's registry wait histogram (a stable reference, looked
  /// up once); every count lives in `stats` only.
  obs::Histogram* wait_hist = nullptr;
};

struct FairScheduler::State {
  const Clock* clock = nullptr;

  debug::RankedMutex<debug::LockRank::kSchedQueue> mutex;
  std::condition_variable_any grant_cv;

  bool closed = false;
  /// The one channel slot is held by a granted, uncompleted ticket.
  bool busy = false;
  std::uint64_t next_seq = 0;
  double virtual_time = 0.0;
  std::uint64_t queued_total = 0;

  std::map<TenantId, Tenant> tenants;

  std::uint64_t submitted_ops = 0;
  std::uint64_t dispatched_ops = 0;
  std::uint64_t dispatched_bytes = 0;

  Tenant& tenant_for(const TenantId& id) {
    auto [it, inserted] = tenants.try_emplace(id);
    Tenant& t = it->second;
    if (inserted) {
      // New arrivals start at the global virtual time: an idle or new
      // tenant cannot have banked credit against active ones.
      t.vtime = virtual_time;
      t.stats.weight = t.weight;
      t.wait_hist =
          &obs::Registry::instance().histogram("sched.tenant." + id + ".wait_seconds");
    }
    return t;
  }
};

FairScheduler::FairScheduler(const Clock* clock) : state_(std::make_unique<State>()) {
  state_->clock = clock != nullptr ? clock : &default_clock();
}

FairScheduler::~FairScheduler() { close(); }

void FairScheduler::register_tenant(const TenantId& tenant, double weight) {
  APIO_REQUIRE(!tenant.empty(), "tenant id must be non-empty");
  APIO_REQUIRE(weight > 0.0, "tenant weight must be positive");
  State& s = *state_;
  std::lock_guard lock(s.mutex);
  Tenant& t = s.tenant_for(tenant);
  t.weight = weight;
  t.stats.weight = weight;
}

TicketPtr FairScheduler::submit(const IoRequest& request) {
  State& s = *state_;
  auto ticket = std::make_shared<Ticket>();
  ticket->request_ = request;
  if (ticket->request_.tenant.empty()) ticket->request_.tenant = kDefaultTenant;

  std::lock_guard lock(s.mutex);
  ticket->seq_ = s.next_seq++;
  ticket->submit_time_ = s.clock->now();

  Tenant& t = s.tenant_for(ticket->request_.tenant);
  ++s.submitted_ops;
  ++t.stats.submitted_ops;
  t.stats.submitted_bytes += ticket->request_.bytes;

  t.queue[static_cast<int>(ticket->request_.lane)].push_back(ticket);
  ++s.queued_total;
  ++t.stats.queue_depth;
  t.stats.max_queue_depth =
      std::max(t.stats.max_queue_depth, t.stats.queue_depth);

  dispatch_locked(s);
  return ticket;
}

void FairScheduler::wait(const TicketPtr& ticket) {
  APIO_REQUIRE(ticket != nullptr, "wait() needs a ticket");
  if (ticket->granted()) return;
  State& s = *state_;
  std::unique_lock lock(s.mutex);
  // Deliberate: an execution stream waits here for its share of the
  // channel, exactly as an application thread does.
  s.grant_cv.wait(lock, [&] { return ticket->granted(); });  // apio-lint: allow(thread-context)
}

void FairScheduler::complete(const TicketPtr& ticket) {
  APIO_REQUIRE(ticket != nullptr, "complete() needs a ticket");
  APIO_REQUIRE(ticket->granted(), "complete() before grant");
  if (ticket->completed_.exchange(true, std::memory_order_acq_rel)) return;
  State& s = *state_;
  std::lock_guard lock(s.mutex);
  // Tickets granted by close() bypassed the slot; completing any ticket
  // leaves it free.
  s.busy = false;
  dispatch_locked(s);
}

TicketPtr FairScheduler::admit(const IoRequest& request) {
  TicketPtr ticket = submit(request);
  wait(ticket);
  return ticket;
}

void FairScheduler::close() {
  State& s = *state_;
  std::lock_guard lock(s.mutex);
  if (s.closed) return;
  s.closed = true;
  dispatch_locked(s);  // grants everything queued, in fair order
}

bool FairScheduler::closed() const {
  State& s = *state_;
  std::lock_guard lock(s.mutex);
  return s.closed;
}

SchedStats FairScheduler::stats() const {
  State& s = *state_;
  std::lock_guard lock(s.mutex);
  SchedStats out;
  out.submitted_ops = s.submitted_ops;
  out.dispatched_ops = s.dispatched_ops;
  out.dispatched_bytes = s.dispatched_bytes;
  out.virtual_time = s.virtual_time;
  for (const auto& [id, tenant] : s.tenants) out.tenants.emplace(id, tenant.stats);
  return out;
}

/// Grants the channel slot when it is free and work is queued (after
/// close(), grants everything queued).  Lane policy first (any
/// priority request beats any bulk request), then weighted fairness:
/// the grant goes to the lane head whose tenant has the smallest
/// virtual start time, then to the earlier arrival.  Called with the
/// queue mutex held; notifies waiters once per batch.
void FairScheduler::dispatch_locked(State& s) {
  bool granted_any = false;
  while (s.queued_total > 0 && (s.closed || !s.busy)) {
    Tenant* best_tenant = nullptr;
    int best_lane = 0;
    double best_start = 0.0;
    std::uint64_t best_seq = 0;
    for (int lane = 0; lane < kLanes && best_tenant == nullptr; ++lane) {
      for (auto& [id, t] : s.tenants) {
        if (t.queue[lane].empty()) continue;
        const double start = std::max(t.vtime, s.virtual_time);
        const std::uint64_t seq = t.queue[lane].front()->seq_;
        if (best_tenant == nullptr || start < best_start ||
            (start == best_start && seq < best_seq)) {
          best_tenant = &t;
          best_lane = lane;
          best_start = start;
          best_seq = seq;
        }
      }
    }
    if (best_tenant == nullptr) break;  // queued_total out of sync — cannot happen
    Tenant& t = *best_tenant;
    TicketPtr ticket = std::move(t.queue[best_lane].front());
    t.queue[best_lane].pop_front();
    --s.queued_total;
    --t.stats.queue_depth;

    // Start-time fair queuing over bytes: charge the grant to the
    // tenant's virtual time so backlogged tenants share the channel
    // in proportion to their weights.  Only BULK grants advance the
    // global frontier: a priority grant's start tag rides the issuing
    // tenant's vtime, which sits up to one full charge ahead of the
    // frontier — advancing V to it would snap every lagging tenant
    // forward ("catch-up" forgiveness) and erase the fair-queuing
    // history each time anyone flushes, degrading SFQ toward FIFO.
    // Priority bytes still charge the tenant's own vtime, so flush
    // metadata is paid out of that tenant's bulk entitlement.
    const IoRequest& req = ticket->request_;
    const double start = std::max(t.vtime, s.virtual_time);
    if (req.lane == Lane::kBulk) s.virtual_time = start;
    t.vtime = start + static_cast<double>(req.bytes) / t.weight;

    const double now = s.clock->now();
    ticket->grant_time_ = now;
    const double waited = now - ticket->submit_time_;

    ++s.dispatched_ops;
    s.dispatched_bytes += req.bytes;
    ++t.stats.dispatched_ops;
    t.stats.dispatched_bytes += req.bytes;
    t.stats.lane_bytes[static_cast<int>(req.lane)] += req.bytes;
    t.stats.wait_seconds_total += waited;
    auto& samples = t.stats.wait_samples[static_cast<int>(req.lane)];
    if (samples.size() < kMaxWaitSamples) samples.push_back(waited);
    if (req.lane == Lane::kPriority) ++t.stats.priority_ops;
    if (obs::enabled()) t.wait_hist->record_seconds(waited);

    if (!s.closed) s.busy = true;
    ticket->granted_.store(true, std::memory_order_release);
    granted_any = true;
  }
  if (granted_any) s.grant_cv.notify_all();
}

}  // namespace apio::sched
