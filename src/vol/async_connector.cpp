#include "vol/async_connector.h"

#include <cstring>
#include <optional>
#include <sstream>

#include "common/debug/invariant.h"
#include "common/debug/thread_role.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "vol/selection_token.h"

namespace apio::vol {
namespace {

obs::Histogram& stage_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.async.stage_seconds");
  return h;
}

obs::Histogram& execute_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.async.execute_seconds");
  return h;
}

obs::Counter& staged_bytes_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.bytes_staged");
  return c;
}

obs::Counter& executed_bytes_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.bytes_executed");
  return c;
}

obs::Counter& prefetch_hits_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.prefetch_hits");
  return c;
}

obs::Counter& prefetch_misses_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.prefetch_misses");
  return c;
}

obs::Counter& retries_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.retries");
  return c;
}

obs::Counter& degraded_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.degraded_ops");
  return c;
}

obs::Counter& failed_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.failed_ops");
  return c;
}

obs::Counter& io_degraded_counter() {
  static auto& c = obs::Registry::instance().counter("io.degraded_ops");
  return c;
}

/// Byte offset of the selection's first element within the dataset's
/// linearized (row-major) extent; 0 for an all-selection.
std::uint64_t selection_offset_bytes(const h5::Dataset& ds,
                                     const h5::Selection& selection) {
  if (selection.is_all()) return 0;
  const auto pitches = h5::row_pitches(ds.dims());
  const h5::Dims& start = selection.slab().start;
  std::uint64_t elems = 0;
  const std::size_t rank = std::min(start.size(), pitches.size());
  for (std::size_t i = 0; i < rank; ++i) elems += start[i] * pitches[i];
  return elems * ds.element_size();
}

}  // namespace

struct AsyncConnector::AsyncOp {
  obs::IoOp kind = obs::IoOp::kWrite;
  std::optional<h5::Dataset> ds;
  h5::Selection selection = h5::Selection::all();
  /// Write payload when staging in DRAM.
  std::shared_ptr<std::vector<std::byte>> staged;
  /// Write payload location when staging on a device.
  std::uint64_t device_offset = 0;
  /// Read destination (caller-owned until completion).
  std::span<std::byte> out;
  /// Prefetch destination (cache-owned).
  std::shared_ptr<std::vector<std::byte>> buffer;
  std::uint64_t bytes = 0;

  tasking::EventualPtr done;
  RequestInfo info;
  RequestOutcomePtr outcome;
  /// Fair-share identity captured at issue time; re-bound on the
  /// background stream around every attempt so a QosBackend under the
  /// file charges the issuing tenant.
  sched::SubmissionContext submission;
  std::unique_ptr<resilience::RetrySession> session;
  /// Observer record emission; run on final success only.
  std::function<void()> on_complete;

  /// Causal trace identity, minted at submission; re-bound alongside
  /// the submission context around every attempt.
  obs::trace::TraceContext trace;
  double trace_start = 0.0;       ///< root span start (steady_seconds)
  double fifo_enqueue_time = 0.0; ///< FIFO-wait phase anchor
  double pool_push_time = 0.0;    ///< pool-wait phase anchor
};

/// Records the completion phase and seals the op's trace.  Must run
/// before the eventual fires so waiters observe a sealed trace.
void AsyncConnector::seal_trace(const AsyncOp& op, bool failed,
                                double completion_start) {
  if (!op.trace.recording()) return;
  const double now = obs::steady_seconds();
  obs::trace::record_phase(op.trace, obs::trace::Phase::kComplete,
                           completion_start, now - completion_start);
  obs::trace::TraceCollector::instance().complete(
      op.trace, op.kind,
      op.submission.tenant.empty() ? sched::kDefaultTenant
                                   : op.submission.tenant,
      op.bytes, failed, op.trace_start, now);
}

AsyncConnector::AsyncConnector(h5::FilePtr file, AsyncOptions options,
                               const Clock* clock)
    : file_(std::move(file)),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &wall_clock_) {
  APIO_REQUIRE(file_ != nullptr, "AsyncConnector requires an open file");
  options_.retry.validate();
  const double t0 = clock_->now();
  pool_ = std::make_shared<tasking::Pool>();
  stream_ = std::make_unique<tasking::ExecutionStream>(pool_);
  last_op_ = tasking::Eventual::make_ready();
  std::lock_guard lock(stats_mutex_);
  stats_.init_seconds = clock_->now() - t0;
}

AsyncConnector::~AsyncConnector() {
  try {
    shutdown_machinery();
  } catch (...) {
    // Failures surface through explicit close()/wait_all(); the
    // destructor must stay silent.
  }
}

void AsyncConnector::shutdown_machinery() {
  if (closed_.exchange(true)) return;
  const double t0 = clock_->now();
  wait_all();
  stream_->shutdown();
  clear_cache();
  std::lock_guard lock(stats_mutex_);
  stats_.term_seconds = clock_->now() - t0;
}

void AsyncConnector::enqueue_op(std::shared_ptr<AsyncOp> op,
                                obs::trace::ScopedPhase& submit) {
  if (closed_.load()) throw StateError("AsyncConnector used after close()");

  // Submission identity, resolved at issue time: connector-level tenant
  // wins, then the issuing thread's binding.  Flushes ride the priority
  // lane (they are the latency-sensitive barrier ops the fairness gate
  // protects); the op's admission deadline is the same issue-anchored
  // budget its retries run under.
  if (const sched::SubmissionContext* ctx = sched::current_submission()) {
    op->submission = *ctx;
  }
  if (!options_.tenant.empty()) op->submission.tenant = options_.tenant;
  op->submission.lane = op->kind == obs::IoOp::kFlush
                            ? sched::Lane::kPriority
                            : sched::Lane::kBulk;
  if (options_.retry.deadline_seconds > 0.0) {
    op->submission.deadline =
        sched::IoRequest::deadline_from(options_.retry, clock_->now());
  }

  op->done = tasking::Eventual::make();
  op->outcome = std::make_shared<RequestOutcome>();
  op->session = std::make_unique<resilience::RetrySession>(
      options_.retry, clock_,
      options_.sleeper != nullptr ? options_.sleeper
                                  : &resilience::wall_sleeper(),
      options_.breaker.get());

  // Once the op is on the FIFO, its waits and attempts run on other
  // threads as siblings of the submit phase; closing submit first keeps
  // the request's phases disjoint, so their self times sum to its wall.
  submit.finish();
  op->fifo_enqueue_time = obs::steady_seconds();

  std::lock_guard lock(order_mutex_);
  tasking::EventualPtr prev = last_op_;
  last_op_ = op->done;
  // FIFO chain: the new op enters the pool only when its predecessor
  // reached its final outcome (including any retries).  A predecessor
  // failure does not cancel successors — the async VOL records errors
  // per operation, it does not poison the queue.
  prev->on_ready([this, op = std::move(op)]() mutable {
    op->pool_push_time = obs::steady_seconds();
    obs::trace::record_phase(op->trace, obs::trace::Phase::kFifoWait,
                             op->fifo_enqueue_time,
                             op->pool_push_time - op->fifo_enqueue_time);
    if (!pool_->try_push([this, op] { run_attempt(op); })) {
      finish_failure(op, std::make_exception_ptr(StateError(
                             "async operation dropped: connector shut down")));
    }
  });
}

void AsyncConnector::execute_op(AsyncOp& op) {
  switch (op.kind) {
    case obs::IoOp::kWrite:
      if (options_.staging_backend) {
        std::vector<std::byte> from_device(op.bytes);
        options_.staging_backend->read(op.device_offset, from_device);
        op.ds->write_raw(op.selection, from_device);
      } else {
        op.ds->write_raw(op.selection, *op.staged);
      }
      break;
    case obs::IoOp::kRead:
      op.ds->read_raw(op.selection, op.out);
      break;
    case obs::IoOp::kPrefetch:
      op.ds->read_raw(op.selection, *op.buffer);
      break;
    case obs::IoOp::kFlush:
      file_->flush();
      break;
  }
}

void AsyncConnector::run_attempt(const std::shared_ptr<AsyncOp>& op) {
  APIO_ASSERT_ON_STREAM();
  // Background threads do not inherit the issuer's thread-local
  // submission binding; restore it for the whole attempt (storage
  // transfer AND sync-fallback replay) so QosBackend admission charges
  // the right tenant.
  sched::ScopedSubmission bind(op->submission);
  // Re-bind the trace next to the submission identity and close the
  // pool-wait gap (push time -> this pickup).
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  if (op->pool_push_time > 0.0) {
    const double picked_up = obs::steady_seconds();
    obs::trace::record_phase(op->trace, obs::trace::Phase::kPoolWait,
                             op->pool_push_time,
                             picked_up - op->pool_push_time);
    op->pool_push_time = 0.0;
  }
  try {
    // A breaker-rejected attempt executes nothing, so it opens no
    // attempt phase and adds nothing to the execute metrics.
    op->session->check_breaker();
    obs::Counter* executed =
        op->kind == obs::IoOp::kPrefetch ? nullptr : &executed_bytes_counter();
    obs::trace::ScopedPhase attempt(obs::trace::Phase::kAttempt, op->bytes,
                                    nullptr, execute_hist(), executed);
    execute_op(*op);
    attempt.finish();
    op->session->note_success();
    finish_success(op);
    return;
  } catch (...) {
    std::exception_ptr error = std::current_exception();
    if (op->session->backoff_and_retry(error)) {
      // Re-enqueue the same op; when the pool closed under us (shutdown
      // racing a retry) fail the request instead of wedging the drain.
      op->pool_push_time = obs::steady_seconds();
      if (pool_->try_push([this, op] { run_attempt(op); })) return;
      error = std::make_exception_ptr(
          StateError("async retry abandoned: connector shut down"));
    }
    // Policy exhausted (or error permanent / deadline overrun).
    if (op->kind == obs::IoOp::kWrite && options_.sync_fallback) {
      try {
        // Degraded mode: replay the staged buffer through the native
        // synchronous path, outside policy and breaker — the last
        // resort before reporting data loss.
        obs::trace::ScopedPhase fallback(obs::trace::Phase::kFallback,
                                         op->bytes);
        if (options_.staging_backend) {
          std::vector<std::byte> from_device(op->bytes);
          options_.staging_backend->read(op->device_offset, from_device);
          op->ds->write_raw(op->selection, from_device);
        } else {
          op->ds->write_raw(op->selection, *op->staged);
        }
        fallback.finish();
        op->outcome->degraded = true;
        finish_success(op);
        return;
      } catch (...) {
        error = std::current_exception();
      }
    }
    finish_failure(op, std::move(error));
  }
}

void AsyncConnector::finish_success(const std::shared_ptr<AsyncOp>& op) {
  const double completion_start = obs::steady_seconds();
  // The outcome must be fully written before the eventual completes:
  // completion is the release point observers synchronize on.
  op->outcome->attempts = std::max(op->session->attempts(), 1);
  op->outcome->deadline_exhausted = op->session->deadline_exhausted();
  const std::uint64_t retries =
      static_cast<std::uint64_t>(op->outcome->attempts - 1);
  if (op->kind == obs::IoOp::kWrite) {
    op->staged.reset();
    note_unstaged(op->bytes);
  }
  if (obs::enabled()) {
    if (retries > 0) retries_counter().add(retries);
    if (op->outcome->degraded) {
      degraded_counter().increment();
      io_degraded_counter().increment();
    }
  }
  {
    std::lock_guard lock(stats_mutex_);
    stats_.retries += retries;
    if (op->outcome->degraded) ++stats_.degraded_ops;
  }
  if (op->on_complete) op->on_complete();
  seal_trace(*op, /*failed=*/false, completion_start);
  op->done->set();
}

void AsyncConnector::finish_failure(const std::shared_ptr<AsyncOp>& op,
                                    std::exception_ptr error) {
  const double completion_start = obs::steady_seconds();
  op->outcome->attempts = std::max(op->session->attempts(), 1);
  op->outcome->deadline_exhausted = op->session->deadline_exhausted();
  const std::uint64_t retries =
      static_cast<std::uint64_t>(op->outcome->attempts - 1);
  if (op->kind == obs::IoOp::kWrite) {
    op->staged.reset();
    note_unstaged(op->bytes);
  }
  if (obs::enabled()) {
    if (retries > 0) retries_counter().add(retries);
    failed_counter().increment();
  }
  {
    std::lock_guard lock(stats_mutex_);
    stats_.retries += retries;
    ++stats_.failed_ops;
  }
  seal_trace(*op, /*failed=*/true, completion_start);
  op->done->set_error(std::move(error));
}

RequestPtr AsyncConnector::dataset_write(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<const std::byte> data) {
  const double t0 = clock_->now();
  auto op = std::make_shared<AsyncOp>();
  op->trace = obs::trace::TraceCollector::instance().start_trace();
  op->trace_start = obs::steady_seconds();
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit,
                                       data.size());

  // The transactional copy: a non-zero-copy into a private staging area
  // so the caller may immediately reuse (or mutate) its memory while
  // the background thread performs the actual storage transfer.  The
  // staging area is either a DRAM buffer or, when configured, a
  // node-local staging device (SSD) region.
  note_staged(data.size());
  op->kind = obs::IoOp::kWrite;
  op->ds = ds;
  op->selection = selection;
  op->bytes = data.size();
  {
    obs::trace::ScopedPhase stage_span(obs::trace::Phase::kStageCopy, data.size(),
                                       nullptr, stage_hist(), &staged_bytes_counter());
    if (options_.staging_backend) {
      op->device_offset = staging_device_offset_.fetch_add(data.size());
      options_.staging_backend->write(op->device_offset, data);
    } else {
      op->staged =
          std::make_shared<std::vector<std::byte>>(data.begin(), data.end());
    }
  }
  const double blocking = clock_->now() - t0;

  // Identity is captured at issue time unconditionally — failures must
  // carry it even when no observer is attached (the background stream
  // has no business touching the container's path index).
  op->info.op = obs::IoOp::kWrite;
  op->info.dataset_path = file_->path_of(ds);
  op->info.selection = selection_to_token(selection);
  op->info.offset = selection_offset_bytes(ds, selection);
  op->info.bytes = data.size();

  if (has_observers()) {
    op->on_complete = [this, t0, blocking, bytes = data.size(),
                       ranks = reported_ranks(),
                       origin_rank = obs::thread_rank(),
                       path = op->info.dataset_path,
                       token = op->info.selection,
                       trace_id = op->trace.trace_id,
                       span_id = op->trace.span_id] {
      IoRecord record;
      record.op = IoOp::kWrite;
      record.dataset_path = path;
      record.selection = token;
      record.bytes = bytes;
      record.ranks = ranks;
      record.origin_rank = origin_rank;
      record.issue_time = t0;
      record.blocking_seconds = blocking;
      record.completion_seconds = clock_->now() - t0;
      record.async = true;
      record.trace_id = trace_id;
      record.span_id = span_id;
      observe(record);
    };
  }

  auto request_info = op->info;
  enqueue_op(op, submit_phase);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.writes_enqueued;
  }
  return std::make_shared<Request>(op->done, std::move(request_info),
                                   op->outcome);
}

RequestPtr AsyncConnector::dataset_read(h5::Dataset ds,
                                        const h5::Selection& selection,
                                        std::span<std::byte> out) {
  const double t0 = clock_->now();
  const std::string key = cache_key(ds, selection);

  // Prefetch-cache hit: the data was pulled into node-local memory
  // during a previous compute phase; serve it with a memcpy.
  CacheEntry entry;
  bool hit = false;
  {
    std::lock_guard lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      entry = it->second;
      cache_.erase(it);
      hit = true;
    }
  }
  if (hit) {
    if (obs::enabled()) prefetch_hits_counter().increment();
    entry.ready->wait();  // normally already complete
    APIO_REQUIRE(entry.data->size() == out.size(),
                 "prefetched buffer size does not match read selection");
    std::memcpy(out.data(), entry.data->data(), out.size());
    const double dt = clock_->now() - t0;
    if (has_observers()) {
      IoRecord record;
      record.op = IoOp::kRead;
      record.bytes = out.size();
      record.ranks = reported_ranks();
      record.origin_rank = obs::thread_rank();
      record.issue_time = t0;
      record.blocking_seconds = dt;
      record.completion_seconds = dt;
      record.async = true;
      record.cache_hit = true;
      if (observers_want_detail()) {
        record.dataset_path = file_->path_of(ds);
        record.selection = selection_to_token(selection);
      }
      observe(record);
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.cache_hits;
    }
    RequestInfo info;
    info.op = obs::IoOp::kRead;
    info.dataset_path = file_->path_of(ds);
    info.selection = selection_to_token(selection);
    info.offset = selection_offset_bytes(ds, selection);
    info.bytes = out.size();
    return std::make_shared<Request>(tasking::Eventual::make_ready(),
                                     std::move(info));
  }

  if (obs::enabled()) prefetch_misses_counter().increment();
  auto op = std::make_shared<AsyncOp>();
  op->trace = obs::trace::TraceCollector::instance().start_trace();
  op->trace_start = obs::steady_seconds();
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit, out.size());
  op->kind = obs::IoOp::kRead;
  op->ds = ds;
  op->selection = selection;
  op->out = out;
  op->bytes = out.size();
  op->info.op = obs::IoOp::kRead;
  op->info.dataset_path = file_->path_of(ds);
  op->info.selection = selection_to_token(selection);
  op->info.offset = selection_offset_bytes(ds, selection);
  op->info.bytes = out.size();

  if (has_observers()) {
    op->on_complete = [this, t0, bytes = out.size(), ranks = reported_ranks(),
                       origin_rank = obs::thread_rank(),
                       path = op->info.dataset_path,
                       token = op->info.selection,
                       trace_id = op->trace.trace_id,
                       span_id = op->trace.span_id] {
      IoRecord record;
      record.op = IoOp::kRead;
      record.dataset_path = path;
      record.selection = token;
      record.bytes = bytes;
      record.ranks = ranks;
      record.origin_rank = origin_rank;
      record.issue_time = t0;
      record.blocking_seconds = 0.0;  // caller was not blocked
      record.completion_seconds = clock_->now() - t0;
      record.async = true;
      record.trace_id = trace_id;
      record.span_id = span_id;
      observe(record);
    };
  }

  auto request_info = op->info;
  enqueue_op(op, submit_phase);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.reads_enqueued;
    ++stats_.cache_misses;
  }
  return std::make_shared<Request>(op->done, std::move(request_info),
                                   op->outcome);
}

void AsyncConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  const double t0 = clock_->now();
  const std::string key = cache_key(ds, selection);
  {
    std::lock_guard lock(cache_mutex_);
    if (cache_.count(key) > 0) return;  // already in flight
  }
  const std::uint64_t bytes = selection.npoints(ds.dims()) * ds.element_size();
  auto op = std::make_shared<AsyncOp>();
  op->trace = obs::trace::TraceCollector::instance().start_trace();
  op->trace_start = obs::steady_seconds();
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit, bytes);
  op->kind = obs::IoOp::kPrefetch;
  op->ds = ds;
  op->selection = selection;
  op->buffer = std::make_shared<std::vector<std::byte>>(bytes);
  op->bytes = bytes;
  op->info.op = obs::IoOp::kPrefetch;
  op->info.dataset_path = file_->path_of(ds);
  op->info.selection = selection_to_token(selection);
  op->info.offset = selection_offset_bytes(ds, selection);
  op->info.bytes = bytes;

  auto buffer = op->buffer;
  enqueue_op(op, submit_phase);
  {
    std::lock_guard lock(cache_mutex_);
    cache_.emplace(key, CacheEntry{op->done, buffer});
  }
  if (has_observers()) {
    IoRecord record;
    record.op = IoOp::kPrefetch;
    record.bytes = bytes;
    record.ranks = reported_ranks();
    record.origin_rank = obs::thread_rank();
    record.issue_time = t0;
    record.blocking_seconds = clock_->now() - t0;
    record.async = true;
    if (observers_want_detail()) {
      record.dataset_path = op->info.dataset_path;
      record.selection = op->info.selection;
    }
    observe(record);
  }
  std::lock_guard lock(stats_mutex_);
  ++stats_.prefetches_enqueued;
}

RequestPtr AsyncConnector::flush() {
  const double t0 = clock_->now();
  auto op = std::make_shared<AsyncOp>();
  op->trace = obs::trace::TraceCollector::instance().start_trace();
  op->trace_start = obs::steady_seconds();
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit);
  op->kind = obs::IoOp::kFlush;
  op->info.op = obs::IoOp::kFlush;

  if (has_observers()) {
    op->on_complete = [this, t0, ranks = reported_ranks(),
                       origin_rank = obs::thread_rank(),
                       trace_id = op->trace.trace_id,
                       span_id = op->trace.span_id] {
      IoRecord record;
      record.op = IoOp::kFlush;
      record.trace_id = trace_id;
      record.span_id = span_id;
      record.ranks = ranks;
      record.origin_rank = origin_rank;
      record.issue_time = t0;
      record.blocking_seconds = 0.0;  // caller was not blocked
      record.completion_seconds = clock_->now() - t0;
      record.async = true;
      observe(record);
    };
  }

  auto request_info = op->info;
  enqueue_op(op, submit_phase);
  return std::make_shared<Request>(op->done, std::move(request_info),
                                   op->outcome);
}

void AsyncConnector::note_staged(std::uint64_t bytes) {
  if (options_.max_staged_bytes > 0) {
    std::unique_lock lock(staging_mutex_);
    staging_cv_.wait(lock, [&] {
      return staged_outstanding_.load() + bytes <= options_.max_staged_bytes ||
             staged_outstanding_.load() == 0;
    });
  }
  const std::uint64_t now_staged = staged_outstanding_.fetch_add(bytes) + bytes;
  if (obs::enabled()) {
    static auto& gauge = obs::Registry::instance().gauge("vol.async.staged_outstanding");
    gauge.set(static_cast<std::int64_t>(now_staged));
    gauge.note_watermark();
  }
  std::lock_guard lock(stats_mutex_);
  stats_.bytes_staged += bytes;
  stats_.staged_high_watermark = std::max(stats_.staged_high_watermark, now_staged);
}

void AsyncConnector::note_unstaged(std::uint64_t bytes) {
  const std::uint64_t before = staged_outstanding_.fetch_sub(bytes);
  APIO_INVARIANT(before >= bytes, "staging accounting underflow");
  if (obs::enabled()) {
    static auto& gauge = obs::Registry::instance().gauge("vol.async.staged_outstanding");
    gauge.set(static_cast<std::int64_t>(before - bytes));
  }
  if (options_.max_staged_bytes > 0) {
    std::lock_guard lock(staging_mutex_);
    staging_cv_.notify_all();
  }
}

void AsyncConnector::wait_all() {
  // Drains the FIFO without rethrowing: per-operation failures are
  // reported through each Request (or collected by an EventSet), the
  // H5ESwait contract.  Rethrowing only the tail's error here would be
  // arbitrary — intermediate failures would vanish.
  tasking::EventualPtr tail;
  {
    std::lock_guard lock(order_mutex_);
    tail = last_op_;
  }
  tail->wait_ignore_error();
}

void AsyncConnector::close() {
  shutdown_machinery();
  if (file_->is_open()) file_->close();
}

AsyncStats AsyncConnector::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void AsyncConnector::clear_cache() {
  std::lock_guard lock(cache_mutex_);
  cache_.clear();
}

std::string AsyncConnector::cache_key(const h5::Dataset& ds,
                                      const h5::Selection& selection) {
  std::ostringstream os;
  os << ds.object_key() << '|';
  if (selection.is_all()) {
    os << "all";
  } else {
    const h5::Hyperslab& slab = selection.slab();
    auto emit = [&os](const h5::Dims& dims) {
      os << '[';
      for (std::uint64_t d : dims) os << d << ',';
      os << ']';
    };
    emit(slab.start);
    emit(slab.stride);
    emit(slab.count);
    emit(slab.block);
  }
  return os.str();
}

}  // namespace apio::vol
