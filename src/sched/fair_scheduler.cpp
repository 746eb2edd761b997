#include "sched/fair_scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "common/error.h"
#include "obs/metrics.h"

namespace apio::sched {

namespace {

const Clock& default_clock() {
  static WallClock clock;
  return clock;
}

/// Sort key inside one tenant+lane queue: earliest deadline first,
/// deadline-free requests last in FIFO order.
double deadline_key(const IoRequest& request) {
  return request.deadline > 0.0 ? request.deadline
                                : std::numeric_limits<double>::infinity();
}

bool queue_before(const TicketPtr& a, const TicketPtr& b) {
  const double da = deadline_key(a->request());
  const double db = deadline_key(b->request());
  if (da != db) return da < db;
  return a->seq() < b->seq();
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
  /// Queued tickets per lane, ordered by (deadline, seq).
  std::vector<TicketPtr> queue[kLanes];
  TenantStats stats;
  /// Cached obs metric handles (stable references; looked up once).
  obs::Counter* bytes_counter = nullptr;
  obs::Gauge* depth_gauge = nullptr;
  obs::Histogram* wait_hist = nullptr;
  obs::Counter* miss_counter = nullptr;
};

struct FairScheduler::State {
  SchedOptions options;
  const Clock* clock = nullptr;

  debug::RankedMutex<debug::LockRank::kSchedQueue> mutex;
  std::condition_variable_any grant_cv;

  bool closed = false;
  int inflight = 0;
  std::uint64_t next_seq = 0;
  double virtual_time = 0.0;
  std::uint64_t queued_total = 0;

  std::map<TenantId, Tenant> tenants;

  std::uint64_t submitted_ops = 0;
  std::uint64_t dispatched_ops = 0;
  std::uint64_t dispatched_bytes = 0;
  std::uint64_t deadline_misses = 0;

  Tenant& tenant_for(const TenantId& id) {
    auto [it, inserted] = tenants.try_emplace(id);
    Tenant& t = it->second;
    if (inserted) {
      // New arrivals start at the global virtual time: an idle or new
      // tenant cannot have banked credit against active ones.
      t.vtime = virtual_time;
      t.stats.weight = t.weight;
      const std::string prefix = "sched.tenant." + id + ".";
      auto& reg = obs::Registry::instance();
      t.bytes_counter = &reg.counter(prefix + "dispatched_bytes");
      t.depth_gauge = &reg.gauge(prefix + "queue_depth");
      t.wait_hist = &reg.histogram(prefix + "wait_seconds");
      t.miss_counter = &reg.counter(prefix + "deadline_misses");
    }
    return t;
  }
};

FairScheduler::FairScheduler(SchedOptions options)
    : state_(std::make_unique<State>()) {
  APIO_REQUIRE(options.max_inflight >= 1,
               "SchedOptions::max_inflight must be >= 1");
  state_->options = options;
  state_->clock = options.clock != nullptr ? options.clock : &default_clock();
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
  if (obs::enabled()) {
    obs::Registry::instance().counter("sched.submitted").increment();
  }

  auto& queue = t.queue[static_cast<int>(ticket->request_.lane)];
  queue.insert(std::upper_bound(queue.begin(), queue.end(), ticket,
                                queue_before),
               ticket);
  ++s.queued_total;
  ++t.stats.queue_depth;
  t.stats.max_queue_depth =
      std::max(t.stats.max_queue_depth, t.stats.queue_depth);
  if (obs::enabled()) {
    t.depth_gauge->set(static_cast<std::int64_t>(t.stats.queue_depth));
    t.depth_gauge->note_watermark();
  }

  dispatch_locked(s);
  return ticket;
}

void FairScheduler::wait(const TicketPtr& ticket) {
  APIO_REQUIRE(ticket != nullptr, "wait() needs a ticket");
  if (ticket->granted()) return;
  State& s = *state_;
  std::unique_lock lock(s.mutex);
  s.grant_cv.wait(lock, [&] { return ticket->granted(); });
}

void FairScheduler::complete(const TicketPtr& ticket) {
  APIO_REQUIRE(ticket != nullptr, "complete() needs a ticket");
  APIO_REQUIRE(ticket->granted(), "complete() before grant");
  if (ticket->completed_.exchange(true, std::memory_order_acq_rel)) return;
  State& s = *state_;
  std::lock_guard lock(s.mutex);
  // Tickets granted by close() bypassed the inflight limit; only
  // grants that consumed a slot return one.
  if (s.inflight > 0) --s.inflight;
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
  out.deadline_misses = s.deadline_misses;
  out.virtual_time = s.virtual_time;
  for (const auto& [id, tenant] : s.tenants) out.tenants.emplace(id, tenant.stats);
  return out;
}

/// Grants channel slots while any are free and work is queued.  Lane
/// policy first (any priority request beats any bulk request), then
/// weighted fairness: the grant goes to the eligible request whose
/// tenant has the smallest virtual start time, with deadlines breaking
/// ties toward urgency inside the priority lane.  Called with the
/// queue mutex held; notifies waiters once per batch.
void FairScheduler::dispatch_locked(State& s) {
  bool granted_any = false;
  while (s.queued_total > 0 && (s.closed || s.inflight < s.options.max_inflight)) {
    Tenant* best_tenant = nullptr;
    int best_lane = 0;
    // (deadline, virtual start, seq) for priority; (virtual start,
    // deadline, seq) for bulk — fairness dominates in the bulk lane.
    double best_k0 = 0.0, best_k1 = 0.0;
    std::uint64_t best_seq = 0;
    for (int lane = 0; lane < kLanes && best_tenant == nullptr; ++lane) {
      for (auto& [id, t] : s.tenants) {
        if (t.queue[lane].empty()) continue;
        const TicketPtr& head = t.queue[lane].front();
        const double start = std::max(t.vtime, s.virtual_time);
        const double dl = deadline_key(head->request());
        const double k0 = lane == static_cast<int>(Lane::kPriority) ? dl : start;
        const double k1 = lane == static_cast<int>(Lane::kPriority) ? start : dl;
        if (best_tenant == nullptr || k0 < best_k0 ||
            (k0 == best_k0 &&
             (k1 < best_k1 || (k1 == best_k1 && head->seq_ < best_seq)))) {
          best_tenant = &t;
          best_lane = lane;
          best_k0 = k0;
          best_k1 = k1;
          best_seq = head->seq_;
        }
      }
    }
    if (best_tenant == nullptr) break;  // queued_total out of sync — cannot happen
    Tenant& t = *best_tenant;
    TicketPtr ticket = t.queue[best_lane].front();
    t.queue[best_lane].erase(t.queue[best_lane].begin());
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
    const bool missed = req.deadline > 0.0 && now > req.deadline;

    ++s.dispatched_ops;
    s.dispatched_bytes += req.bytes;
    ++t.stats.dispatched_ops;
    t.stats.dispatched_bytes += req.bytes;
    t.stats.lane_bytes[static_cast<int>(req.lane)] += req.bytes;
    t.stats.wait_seconds_total += waited;
    auto& samples = t.stats.wait_samples[static_cast<int>(req.lane)];
    if (samples.size() < kMaxWaitSamples) samples.push_back(waited);
    if (req.lane == Lane::kPriority) ++t.stats.priority_ops;
    if (missed) {
      ++s.deadline_misses;
      ++t.stats.deadline_misses;
    }
    if (obs::enabled()) {
      auto& reg = obs::Registry::instance();
      reg.counter("sched.dispatched").increment();
      reg.counter("sched.dispatched_bytes").add(req.bytes);
      if (req.lane == Lane::kPriority) {
        reg.counter("sched.priority_dispatched").increment();
      }
      if (missed) {
        reg.counter("sched.deadline_misses").increment();
        t.miss_counter->increment();
      }
      t.bytes_counter->add(req.bytes);
      t.wait_hist->record_seconds(waited);
      t.depth_gauge->set(static_cast<std::int64_t>(t.stats.queue_depth));
    }

    if (!s.closed) ++s.inflight;
    ticket->granted_.store(true, std::memory_order_release);
    granted_any = true;
  }
  if (granted_any) s.grant_cv.notify_all();
}

}  // namespace apio::sched
