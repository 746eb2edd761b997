#include "vol/async_connector.h"

#include <cstring>
#include <optional>
#include <utility>

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

/// Identity captured at issue time so a failure can be reported with
/// full context after the issuing call returned.
RequestInfo request_info(const h5::File& file, obs::IoOp kind,
                         const h5::Dataset* ds, const h5::Selection& selection,
                         std::uint64_t bytes) {
  RequestInfo info;
  info.op = kind;
  info.bytes = bytes;
  if (ds != nullptr) {
    info.dataset_path = file.path_of(*ds);
    info.selection = selection_to_token(selection);
    info.offset = selection_offset_bytes(*ds, selection);
  }
  return info;
}

}  // namespace

struct AsyncConnector::AsyncOp {
  AsyncOp(obs::IoOp op_kind, resilience::RetrySession retry)
      : kind(op_kind), session(std::move(retry)) {}

  obs::IoOp kind;
  std::optional<h5::Dataset> ds;
  h5::Selection selection = h5::Selection::all();
  /// The op's recycled buffer: the write's DRAM staging copy (or the
  /// staging device's bytes once staged_payload() read them back), or
  /// the prefetch destination, shared with its cache entry.
  Buffer buffer;
  /// Write payload location when staging on a device.
  std::uint64_t device_offset = 0;
  /// True while the op holds `bytes` of the max_staged_bytes budget.
  bool holds_staging = false;
  /// Read destination (caller-owned until completion).
  std::span<std::byte> out;
  std::uint64_t bytes = 0;

  /// Set by submit(), unless `prepare` supplied one (a prefetch shares
  /// its cache entry's).
  tasking::EventualPtr done;
  RequestOutcomePtr outcome = std::make_shared<RequestOutcome>();
  /// Fair-share identity captured at issue time; re-bound on the
  /// background stream for the op's attempts so a QosBackend under the
  /// file charges the issuing tenant.
  sched::SubmissionContext submission;
  /// Anchored at issue, so the deadline covers the FIFO wait too.
  resilience::RetrySession session;
  /// The completion record, filled at issue when observers are attached
  /// and emitted on success only.
  std::optional<IoRecord> record;

  /// Causal trace identity, minted at submission; re-bound alongside
  /// the submission context on the background stream.
  obs::trace::TraceContext trace;
  double trace_start = 0.0;       ///< root span start (steady_seconds)
  double fifo_enqueue_time = 0.0; ///< FIFO-wait phase anchor
  double pool_push_time = 0.0;    ///< pool-wait phase anchor
};

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

template <typename Prepare>
RequestPtr AsyncConnector::submit(obs::IoOp kind, const h5::Dataset* ds,
                                  const h5::Selection& selection,
                                  std::uint64_t bytes, double t0,
                                  Prepare&& prepare) {
  if (closed_.load()) throw StateError("AsyncConnector used after close()");
  auto op = std::make_shared<AsyncOp>(
      kind, resilience::RetrySession(
                options_.retry, clock_,
                options_.sleeper != nullptr ? options_.sleeper
                                            : &resilience::wall_sleeper(),
                options_.breaker.get()));
  if (ds != nullptr) op->ds = *ds;
  op->selection = selection;
  op->bytes = bytes;
  // Submission identity: connector-level tenant wins, then the issuing
  // thread's binding.  Data ops ride the bulk lane; the admission
  // deadline is the same issue-anchored budget the retries run under.
  if (const sched::SubmissionContext* ctx = sched::current_submission()) {
    op->submission = *ctx;
  }
  if (!options_.tenant.empty()) op->submission.tenant = options_.tenant;
  op->submission.lane = sched::Lane::kBulk;
  if (options_.retry.deadline_seconds > 0.0) {
    op->submission.deadline =
        sched::IoRequest::deadline_from(options_.retry, clock_->now());
  }

  op->trace = obs::trace::TraceCollector::instance().start_trace();
  op->trace_start = obs::steady_seconds();
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit, bytes);
  RequestInfo info;
  try {
    prepare(*op);
    if (!op->done) op->done = tasking::Eventual::make();
    // Only a write blocks its caller, for the staging copy.
    const double blocking = kind == obs::IoOp::kWrite ? clock_->now() - t0 : 0.0;
    // Resolved unconditionally, before the op is queued: failures must
    // carry the identity even with no observer attached, and a dataset
    // removed while the op waits in the FIFO has no path left to
    // resolve.  path_of reads the path the node captured at creation.
    info = request_info(*file_, kind, ds, selection, bytes);
    // A prefetch reports at issue (prefetch()); the rest on completion.
    if (has_observers() && kind != obs::IoOp::kPrefetch) {
      op->record = make_record(kind, bytes, /*async=*/true, t0, blocking, 0.0);
      op->record->dataset_path = info.dataset_path;
      op->record->selection = info.selection;
      op->record->trace_id = op->trace.trace_id;
      op->record->span_id = op->trace.span_id;
    }
  } catch (...) {
    release_staging(*op);  // the op never reached the FIFO
    throw;
  }
  auto request = std::make_shared<Request>(op->done, std::move(info), op->outcome);

  // Once the op is on the FIFO, its waits and attempts run on other
  // threads as siblings of the submit phase; closing submit first keeps
  // the request's phases disjoint, so their self times sum to its wall.
  submit_phase.finish();
  op->fifo_enqueue_time = obs::steady_seconds();
  std::lock_guard lock(order_mutex_);
  tasking::EventualPtr prev = std::exchange(last_op_, op->done);
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
      finish(op, std::make_exception_ptr(StateError(
                     "async operation dropped: connector shut down")));
    }
  });
  return request;
}

std::span<const std::byte> AsyncConnector::staged_payload(AsyncOp& op) {
  if (!op.buffer) {
    Buffer from_device = take_buffer(op.bytes);
    from_device->resize(op.bytes);  // a no-op for a recycled buffer
    options_.staging_backend->read(op.device_offset, *from_device);
    op.buffer = std::move(from_device);
  }
  return *op.buffer;
}

void AsyncConnector::execute_op(AsyncOp& op) {
  switch (op.kind) {
    case obs::IoOp::kWrite:
      op.ds->write_raw(op.selection, staged_payload(op));
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
  // bindings: restore the submission identity (so QosBackend admission
  // charges the right tenant) and the trace for every attempt, backoff
  // and sync-fallback replay, and close the pool-wait gap.
  sched::ScopedSubmission bind(op->submission);
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::record_phase(op->trace, obs::trace::Phase::kPoolWait,
                           op->pool_push_time,
                           obs::steady_seconds() - op->pool_push_time);
  std::exception_ptr error;
  for (;;) {
    try {
      // A breaker-rejected attempt executes nothing, so it opens no
      // attempt phase and adds nothing to the execute metrics.
      op->session.check_breaker();
      obs::Counter* executed =
          op->kind == obs::IoOp::kPrefetch ? nullptr : &executed_bytes_counter();
      obs::trace::ScopedPhase attempt(obs::trace::Phase::kAttempt, op->bytes,
                                      nullptr, execute_hist(), executed);
      execute_op(*op);
      attempt.finish();
      op->session.note_success();
      finish(op, nullptr);
      return;
    } catch (...) {
      error = std::current_exception();
      if (!op->session.backoff_and_retry(error)) break;
    }
  }
  // Policy exhausted (or error permanent / deadline overrun).
  if (op->kind == obs::IoOp::kWrite && options_.sync_fallback) {
    try {
      // Degraded mode: replay the staged buffer through the native
      // synchronous path, outside policy and breaker — the last resort
      // before reporting data loss.
      obs::trace::ScopedPhase fallback(obs::trace::Phase::kFallback, op->bytes);
      op->ds->write_raw(op->selection, staged_payload(*op));
      fallback.finish();
      op->outcome->degraded = true;
      error = nullptr;
    } catch (...) {
      error = std::current_exception();
    }
  }
  finish(op, std::move(error));
}

void AsyncConnector::finish(const std::shared_ptr<AsyncOp>& op,
                            std::exception_ptr error) {
  const double completion_start = obs::steady_seconds();
  const bool failed = error != nullptr;
  // The outcome must be fully written before the eventual completes:
  // completion is the release point observers synchronize on.
  RequestOutcome& outcome = *op->outcome;
  outcome.attempts = std::max(op->session.attempts(), 1);
  outcome.deadline_exhausted = op->session.deadline_exhausted();
  const auto retries = static_cast<std::uint64_t>(outcome.attempts - 1);
  release_staging(*op);
  if (obs::enabled()) {
    if (retries > 0) retries_counter().add(retries);
    if (failed) failed_counter().increment();
    if (outcome.degraded) {
      degraded_counter().increment();
      io_degraded_counter().increment();
    }
  }
  {
    std::lock_guard lock(stats_mutex_);
    stats_.retries += retries;
    if (failed) ++stats_.failed_ops;
    if (outcome.degraded) ++stats_.degraded_ops;
  }
  if (op->record && !failed) {
    op->record->completion_seconds = clock_->now() - op->record->issue_time;
    observe(*op->record);
  }
  // Seal the trace before the eventual fires, so waiters observe it
  // sealed.
  if (op->trace.recording()) {
    const double now = obs::steady_seconds();
    obs::trace::record_phase(op->trace, obs::trace::Phase::kComplete,
                             completion_start, now - completion_start);
    obs::trace::TraceCollector::instance().complete(
        op->trace, op->kind,
        op->submission.tenant.empty() ? sched::kDefaultTenant
                                      : op->submission.tenant,
        op->bytes, failed, op->trace_start, now);
  }
  if (failed) {
    op->done->set_error(std::move(error));
  } else {
    op->done->set();
  }
}

RequestPtr AsyncConnector::dataset_write(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<const std::byte> data) {
  auto request = submit(
      obs::IoOp::kWrite, &ds, selection, data.size(), clock_->now(),
      [&](AsyncOp& op) {
        // The transactional copy: a non-zero-copy into a private staging
        // area so the caller may immediately reuse (or mutate) its memory
        // while the background thread performs the actual storage
        // transfer.  The staging area is either a DRAM buffer or, when
        // configured, a node-local staging device (SSD) region.
        take_staging(op);
        obs::trace::ScopedPhase stage_span(obs::trace::Phase::kStageCopy,
                                           data.size(), nullptr, stage_hist(),
                                           &staged_bytes_counter());
        if (options_.staging_backend) {
          op.device_offset = staging_device_offset_.fetch_add(data.size());
          options_.staging_backend->write(op.device_offset, data);
        } else {
          op.buffer = take_buffer(data.size());
          op.buffer->assign(data.begin(), data.end());
        }
      });
  std::lock_guard lock(stats_mutex_);
  ++stats_.writes_enqueued;
  return request;
}

RequestPtr AsyncConnector::dataset_read(h5::Dataset ds,
                                        const h5::Selection& selection,
                                        std::span<std::byte> out) {
  const double t0 = clock_->now();

  // Prefetch-cache hit: the data was pulled into node-local memory
  // during a previous compute phase; serve it with a memcpy.
  CacheEntry entry;
  {
    std::lock_guard lock(cache_mutex_);
    auto it = cache_.find(CacheKey{ds.object_key(), selection});
    if (it != cache_.end()) {
      entry = std::move(it->second);
      cache_.erase(it);
    }
  }
  if (entry.ready) {
    if (obs::enabled()) prefetch_hits_counter().increment();
    entry.ready->wait();  // normally already complete
    APIO_REQUIRE(entry.data->size() == out.size(),
                 "prefetched buffer size does not match read selection");
    std::memcpy(out.data(), entry.data->data(), out.size());
    recycle(entry.data);
    if (has_observers()) {
      const double dt = clock_->now() - t0;
      IoRecord hit = make_record(IoOp::kRead, out.size(), /*async=*/true, t0, dt,
                                 dt, &ds, selection);
      hit.cache_hit = true;
      observe(hit);
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.cache_hits;
    }
    return std::make_shared<Request>(
        tasking::Eventual::make_ready(),
        request_info(*file_, obs::IoOp::kRead, &ds, selection, out.size()));
  }

  if (obs::enabled()) prefetch_misses_counter().increment();
  auto request = submit(obs::IoOp::kRead, &ds, selection, out.size(), t0,
                        [&](AsyncOp& op) { op.out = out; });
  std::lock_guard lock(stats_mutex_);
  ++stats_.reads_enqueued;
  ++stats_.cache_misses;
  return request;
}

void AsyncConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  const double t0 = clock_->now();
  const std::uint64_t bytes = selection.npoints(ds.dims()) * ds.element_size();
  const CacheKey key{ds.object_key(), selection};
  // The entry is complete when it is published: a read that finds it
  // waits on the prefetch's eventual, then copies its buffer.
  CacheEntry entry{tasking::Eventual::make(), take_buffer(bytes)};
  entry.data->resize(bytes);  // a no-op for a recycled buffer
  bool reserved = false;
  {
    // Reserved under the same lock as the duplicate check, so two
    // threads prefetching one selection submit it once.
    std::lock_guard lock(cache_mutex_);
    reserved = cache_.try_emplace(key, entry).second;
  }
  if (!reserved) {  // already in flight
    recycle(entry.data);
    return;
  }
  try {
    submit(obs::IoOp::kPrefetch, &ds, selection, bytes, t0, [&](AsyncOp& op) {
      op.done = entry.ready;
      op.buffer = entry.data;
    });
  } catch (...) {
    // A read may already hold the entry: fail it rather than leave it
    // waiting, and unpublish the entry unless a read consumed it.
    entry.ready->set_error(std::current_exception());
    std::lock_guard lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.ready == entry.ready) cache_.erase(it);
    throw;
  }
  // Reported at issue: the caller's cost is the enqueue.
  if (has_observers()) {
    observe(make_record(IoOp::kPrefetch, bytes, /*async=*/true, t0,
                        clock_->now() - t0, 0.0, &ds, selection));
  }
  std::lock_guard lock(stats_mutex_);
  ++stats_.prefetches_enqueued;
}

RequestPtr AsyncConnector::flush() {
  // Flushes ride the priority lane: they are the latency-sensitive
  // barrier ops the fairness gate protects.
  return submit(obs::IoOp::kFlush, nullptr, h5::Selection::all(), 0,
                clock_->now(), [](AsyncOp& op) {
                  op.submission.lane = sched::Lane::kPriority;
                });
}

void AsyncConnector::take_staging(AsyncOp& op) {
  std::uint64_t now_staged = 0;
  {
    std::unique_lock lock(staging_mutex_);
    if (options_.max_staged_bytes > 0) {
      staging_cv_.wait(lock, [&] {
        return staged_outstanding_ + op.bytes <= options_.max_staged_bytes ||
               staged_outstanding_ == 0;
      });
    }
    op.holds_staging = true;
    now_staged = staged_outstanding_ += op.bytes;
    staged_hwm_ = std::max(staged_hwm_, now_staged);
  }
  if (obs::enabled()) {
    static auto& gauge = obs::Registry::instance().gauge("vol.async.staged_outstanding");
    gauge.set(static_cast<std::int64_t>(now_staged));
    gauge.note_watermark();
  }
  std::lock_guard lock(stats_mutex_);
  stats_.bytes_staged += op.bytes;
  stats_.staged_high_watermark = std::max(stats_.staged_high_watermark, now_staged);
}

void AsyncConnector::release_staging(AsyncOp& op) {
  recycle(op.buffer);
  if (!std::exchange(op.holds_staging, false)) return;
  std::uint64_t now_staged = 0;
  {
    std::lock_guard lock(staging_mutex_);
    APIO_INVARIANT(staged_outstanding_ >= op.bytes, "staging accounting underflow");
    now_staged = staged_outstanding_ -= op.bytes;
    if (options_.max_staged_bytes > 0) staging_cv_.notify_all();
  }
  if (obs::enabled()) {
    static auto& gauge = obs::Registry::instance().gauge("vol.async.staged_outstanding");
    gauge.set(static_cast<std::int64_t>(now_staged));
  }
}

AsyncConnector::Buffer AsyncConnector::take_buffer(std::uint64_t bytes) {
  {
    std::lock_guard lock(staging_mutex_);
    auto bin = free_buffers_.find(bytes);
    if (bin != free_buffers_.end()) {
      Buffer buffer = std::move(bin->second.back());
      bin->second.pop_back();
      if (bin->second.empty()) free_buffers_.erase(bin);
      free_bytes_ -= bytes;
      return buffer;
    }
  }
  return std::make_shared<std::vector<std::byte>>();
}

void AsyncConnector::recycle(Buffer& buffer) {
  if (buffer != nullptr && buffer.use_count() == 1) {
    const std::uint64_t bytes = buffer->size();
    std::lock_guard lock(staging_mutex_);
    // Capped at the staged high-water mark: the list never holds more
    // than the connector has already had in flight at once.
    if (free_bytes_ + bytes <= staged_hwm_) {
      free_buffers_[bytes].push_back(std::move(buffer));
      free_bytes_ += bytes;
      return;
    }
  }
  buffer.reset();
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

}  // namespace apio::vol
