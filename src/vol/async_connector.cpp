#include "vol/async_connector.h"

#include <cstring>
#include <optional>
#include <utility>

#include "common/debug/invariant.h"
#include "common/debug/thread_role.h"
#include "common/error.h"
#include "common/log.h"
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

obs::Counter& executed_bytes_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.bytes_executed");
  return c;
}

obs::Gauge& staged_gauge() {
  static auto& g = obs::Registry::instance().gauge("vol.async.staged_outstanding");
  return g;
}

obs::Gauge& queue_depth_gauge() {
  static auto& g = obs::Registry::instance().gauge("vol.async.queue_depth");
  return g;
}

obs::Histogram& idle_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.async.idle_seconds");
  return h;
}

/// Process-wide stream numbering, used only to label trace lanes.
int next_stream_id() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct AsyncConnector::AsyncOp final : Request {
  /// submit() builds the rest of the op's record.
  AsyncOp(obs::IoOp kind, std::uint64_t bytes) {
    record().op = kind;
    record().bytes = bytes;
  }
  using Request::record;

  obs::IoOp kind() const { return info().op; }
  std::uint64_t bytes() const { return info().bytes; }

  std::optional<h5::Dataset> ds;
  h5::Selection selection = h5::Selection::all();
  /// The op's recycled buffer: the write's DRAM staging copy (or the
  /// staging device's bytes once execute_op() read them back), or the
  /// prefetch destination, shared with its cache entry.
  Buffer buffer;
  /// Write payload location when staging on a device.
  std::uint64_t device_offset = 0;
  /// True while the op holds `bytes` of the max_staged_bytes budget.
  bool holds_staging = false;
  /// Read destination (caller-owned until completion).
  std::span<std::byte> out;

  /// Fair-share identity captured at issue time; re-bound on the
  /// background stream for the op's execution so a QosBackend under
  /// the file charges the issuing tenant.
  sched::SubmissionContext submission;

  /// Causal trace identity, minted at submission; re-bound alongside
  /// the submission context on the background stream.
  obs::trace::TraceContext trace;
  double trace_start = 0.0;  ///< root span start (steady_seconds)
  double push_time = 0.0;    ///< kPoolWait phase anchor (queue push)
};

AsyncConnector::AsyncConnector(h5::FilePtr file, AsyncOptions options)
    : Connector(std::move(file)), options_(std::move(options)) {
  const double t0 = obs::steady_seconds();
  last_op_ = Request::make_ready();
  stream_ = std::thread([this] { run_stream(); });
  std::lock_guard lock(mutex_);
  stats_.init_seconds = obs::steady_seconds() - t0;
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
  const double t0 = obs::steady_seconds();
  wait_all();
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  stream_.join();
  std::lock_guard lock(mutex_);
  clear_cache_locked();
  stats_.term_seconds = obs::steady_seconds() - t0;
}

template <typename Prepare>
RequestPtr AsyncConnector::submit(std::shared_ptr<AsyncOp> op,
                                  const h5::Dataset* ds,
                                  const h5::Selection& selection, double t0,
                                  Prepare&& prepare) {
  if (closed_.load()) throw StateError("AsyncConnector used after close()");
  const obs::IoOp kind = op->kind();
  const std::uint64_t bytes = op->bytes();
  if (ds != nullptr) op->ds = *ds;
  op->selection = selection;
  // Submission identity: the issuing thread's binding.  Data ops ride
  // the bulk lane.
  if (const sched::SubmissionContext* ctx = sched::current_submission()) {
    op->submission = *ctx;
  }
  op->submission.lane = sched::Lane::kBulk;

  op->trace = obs::trace::TraceCollector::instance().start_trace();
  op->trace_start = obs::steady_seconds();
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit, bytes);
  try {
    prepare(*op);
    // Only a write blocks its caller, for the staging copy.
    const double blocking =
        kind == obs::IoOp::kWrite ? obs::steady_seconds() - t0 : 0.0;
    // The op's one record, built here on the issuing thread.  Its
    // identity is described unconditionally, before the op is queued:
    // it rejects a foreign handle, failures must carry the identity even
    // with no observer attached, and a dataset removed while the op waits
    // in the FIFO has no path left to resolve.
    IoRecord& record = op->record();
    record = make_record(kind, bytes, /*async=*/true, t0, blocking, 0.0);
    if (ds != nullptr) describe(record, *ds, selection);
    record.trace_id = op->trace.trace_id;
    record.span_id = op->trace.span_id;
  } catch (...) {
    release_staging(*op, /*failed=*/false);  // the op never reached the FIFO
    throw;
  }
  RequestPtr request = kind == obs::IoOp::kPrefetch ? nullptr : op;

  // Once the op is on the FIFO, its wait and execution run on other
  // threads as siblings of the submit phase; closing submit first keeps
  // the request's phases disjoint, so their self times sum to its wall.
  submit_phase.finish();
  op->push_time = obs::steady_seconds();
  bool queued = false;
  {
    // Pushed under the lock, so ops from racing threads enter the
    // queue in the order last_op_ records.  The one stream pops them in
    // that order and runs each to its outcome, so an op starts only after
    // its predecessor completed.  A predecessor failure does not cancel
    // successors: the async VOL records errors per operation, it does not
    // poison the queue.  Once stopping_ is set the stream may already
    // have exited, so the op fails with its own error instead.  It still
    // counts as enqueued: its request reports the failure.
    std::lock_guard lock(mutex_);
    switch (kind) {
      case obs::IoOp::kWrite: ++stats_.writes_enqueued; break;
      case obs::IoOp::kRead: ++stats_.reads_enqueued; ++stats_.cache_misses; break;
      case obs::IoOp::kPrefetch: ++stats_.prefetches_enqueued; break;
      case obs::IoOp::kFlush: break;
    }
    last_op_ = op;
    if (!stopping_) {
      queue_.push_back(std::move(op));
      queued = true;
      if (obs::enabled()) {
        queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
        queue_depth_gauge().note_watermark();
      }
    }
  }
  if (queued) {
    queue_cv_.notify_one();
  } else {
    finish(op, std::make_exception_ptr(
                   StateError("async operation dropped: connector shut down")));
  }
  return request;
}

void AsyncConnector::run_stream() {
  // Tagged so op bodies can APIO_ASSERT_ON_STREAM(), pmpi collectives
  // abort if they are ever driven from a stream, and spans land in the
  // stream's trace lane.
  debug::ScopedThreadRole role(debug::ThreadRole::kStream, next_stream_id());
  for (;;) {
    // Idle time between ops is the queue's dead air: the paper's
    // overlap efficiency shows as idle vs. execute time.
    const bool timed = obs::enabled();
    const double wait_start = timed ? obs::steady_seconds() : 0.0;
    std::shared_ptr<AsyncOp> op;
    {
      std::unique_lock lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and drained
      op = std::move(queue_.front());
      queue_.pop_front();
      if (timed) queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
    }
    if (timed) idle_hist().record_seconds(obs::steady_seconds() - wait_start);
    try {
      run_attempt(op);
    } catch (...) {
      // run_attempt routes the transfer's failure through the request;
      // an escape (a throwing observer, say) is logged, and the stream
      // keeps draining.
      APIO_LOG_ERROR("async op escaped exception: "
                     << error_message(std::current_exception()));
    }
  }
}

void AsyncConnector::execute_op(AsyncOp& op) {
  switch (op.kind()) {
    case obs::IoOp::kWrite:
      if (options_.staging_backend) {
        // Staged on a device: read the bytes back into a recycled
        // buffer, which finish() returns on either outcome.
        {
          std::lock_guard lock(mutex_);
          op.buffer = take_buffer_locked(op.bytes());
        }
        op.buffer->resize(op.bytes());  // a no-op for a recycled buffer
        options_.staging_backend->read(op.device_offset, *op.buffer);
      }
      op.ds->write_raw(op.selection, *op.buffer);
      break;
    case obs::IoOp::kRead:
      op.ds->read_raw(op.selection, op.out);
      break;
    case obs::IoOp::kPrefetch:
      op.ds->read_raw(op.selection, *op.buffer);
      break;
    case obs::IoOp::kFlush:
      file()->flush();
      break;
  }
}

void AsyncConnector::run_attempt(const std::shared_ptr<AsyncOp>& op) {
  APIO_ASSERT_ON_STREAM();
  // Background threads do not inherit the issuer's thread-local
  // bindings: restore the submission identity (so QosBackend admission
  // charges the right tenant) and the trace, and close the pool-wait gap.
  sched::ScopedSubmission bind(op->submission);
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::record_phase(op->trace, obs::trace::Phase::kPoolWait,
                           op->push_time, obs::steady_seconds() - op->push_time);
  std::exception_ptr error;
  try {
    obs::trace::ScopedPhase attempt(obs::trace::Phase::kAttempt, op->bytes(),
                                    nullptr, execute_hist());
    execute_op(*op);
    attempt.finish();
    // Counted on success only: a transfer that threw (an open breaker
    // below, say) may have moved nothing.
    if (op->kind() != obs::IoOp::kPrefetch && obs::enabled()) {
      executed_bytes_counter().add(op->bytes());
    }
  } catch (...) {
    error = std::current_exception();
  }
  finish(op, std::move(error));
}

void AsyncConnector::finish(const std::shared_ptr<AsyncOp>& op,
                            std::exception_ptr error) {
  const double completion_start = obs::steady_seconds();
  const bool failed = error != nullptr;
  release_staging(*op, failed);
  // The record is emitted on success only; a prefetch reported at issue
  // (prefetch()).
  IoRecord& record = op->record();
  record.completion_seconds = obs::steady_seconds() - record.issue_time;
  if (!failed && op->kind() != obs::IoOp::kPrefetch && emits_records()) {
    observe(record);
  }
  // Seal the trace before the op completes, so waiters observe it
  // sealed.
  if (op->trace.recording()) {
    const double now = obs::steady_seconds();
    obs::trace::record_phase(op->trace, obs::trace::Phase::kComplete,
                             completion_start, now - completion_start);
    obs::trace::TraceCollector::instance().complete(
        op->trace, op->kind(),
        op->submission.tenant.empty() ? sched::kDefaultTenant
                                      : op->submission.tenant,
        op->bytes(), failed, op->trace_start, now);
  }
  op->complete(std::move(error));
}

RequestPtr AsyncConnector::dataset_write(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<const std::byte> data) {
  const double t0 = obs::steady_seconds();
  return submit(
      std::make_shared<AsyncOp>(obs::IoOp::kWrite, data.size()), &ds,
      selection, t0, [&](AsyncOp& op) {
        // The transactional copy: a non-zero-copy into a private staging
        // area so the caller may immediately reuse (or mutate) its memory
        // while the background thread performs the actual storage
        // transfer.  The staging area is either a DRAM buffer or, when
        // configured, a node-local staging device (SSD) region.
        take_staging(op);
        obs::trace::ScopedPhase stage_span(obs::trace::Phase::kStageCopy,
                                           data.size(), nullptr, stage_hist());
        if (options_.staging_backend) {
          options_.staging_backend->write(op.device_offset, data);
        } else {
          op.buffer->assign(data.begin(), data.end());
        }
      });
}

RequestPtr AsyncConnector::dataset_read(h5::Dataset ds,
                                        const h5::Selection& selection,
                                        std::span<std::byte> out) {
  const double t0 = obs::steady_seconds();

  // Prefetch-cache hit: the data was pulled into node-local memory
  // during a previous compute phase; serve it with a memcpy.
  CacheEntry entry;
  {
    std::lock_guard lock(mutex_);
    auto it = cache_.find(CacheKey{ds.object_key(), selection});
    if (it != cache_.end()) {
      entry = std::move(it->second);
      cache_.erase(it);
    }
  }
  if (entry.ready) {
    entry.ready->wait_ignore_error();  // normally already complete
    const std::exception_ptr error = entry.ready->error();
    const bool fits = entry.data->size() == out.size();
    if (!error && fits) std::memcpy(out.data(), entry.data->data(), out.size());
    {
      // Recycled before any throw, so the lent count stays exact.
      std::lock_guard lock(mutex_);
      recycle_locked(entry.data);
      if (!error && fits) ++stats_.cache_hits;
    }
    if (error) std::rethrow_exception(error);
    APIO_REQUIRE(fits, "prefetched buffer size does not match read selection");
    const double dt = obs::steady_seconds() - t0;
    IoRecord hit = make_record(IoOp::kRead, out.size(), /*async=*/true, t0, dt, dt);
    describe(hit, ds, selection);
    hit.cache_hit = true;
    if (emits_records()) observe(hit);
    return Request::make_ready(std::move(hit));
  }

  return submit(std::make_shared<AsyncOp>(obs::IoOp::kRead, out.size()), &ds,
                selection, t0, [&](AsyncOp& op) { op.out = out; });
}

void AsyncConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  const double t0 = obs::steady_seconds();
  const std::uint64_t bytes = selection.npoints(ds.dims()) * ds.element_size();
  const CacheKey key{ds.object_key(), selection};
  // A read that finds the entry waits on the prefetch's op, then copies
  // its buffer.  The buffer is sized after the entry is published; this
  // thread holds a reference until then, so no other holder can recycle
  // it at the wrong size.  A duplicate drops the op unused: it takes no
  // buffer and mints no trace.
  auto op = std::make_shared<AsyncOp>(obs::IoOp::kPrefetch, bytes);
  Buffer data;
  {
    // Reserved under the same lock as the duplicate check, so two
    // threads prefetching one selection submit it once.
    std::lock_guard lock(mutex_);
    if (cache_.contains(key)) return;  // already in flight
    data = take_buffer_locked(bytes);
    cache_.emplace(key, CacheEntry{op, data});
  }
  data->resize(bytes);  // a no-op for a recycled buffer
  try {
    submit(op, &ds, selection, t0, [&](AsyncOp&) {
      op->buffer = std::move(data);  // shared with the cache entry
    });
  } catch (...) {
    // A read may already hold the entry: fail it rather than leave it
    // waiting, and unpublish the entry unless a read consumed it.
    op->complete(std::current_exception());
    std::lock_guard lock(mutex_);
    recycle_locked(data);  // still ours if submit threw before `prepare`
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.ready == op) {
      recycle_locked(it->second.data);
      cache_.erase(it);
    }
    throw;
  }
  // Reported at issue: the caller's cost is the enqueue.
  if (emits_records()) {
    observe(make_record(IoOp::kPrefetch, bytes, /*async=*/true, t0,
                        obs::steady_seconds() - t0, 0.0, &ds, selection));
  }
}

RequestPtr AsyncConnector::flush() {
  // Flushes ride the priority lane: they are the latency-sensitive
  // barrier ops the fairness gate protects.
  const double t0 = obs::steady_seconds();
  return submit(std::make_shared<AsyncOp>(obs::IoOp::kFlush, 0), nullptr,
                h5::Selection::all(), t0, [](AsyncOp& op) {
                  op.submission.lane = sched::Lane::kPriority;
                });
}

void AsyncConnector::take_staging(AsyncOp& op) {
  std::unique_lock lock(mutex_);
  if (options_.max_staged_bytes > 0) {
    staging_cv_.wait(lock, [&] {
      return staged_outstanding_ + op.bytes() <= options_.max_staged_bytes ||
             staged_outstanding_ == 0;
    });
  }
  op.holds_staging = true;
  const std::uint64_t now_staged = staged_outstanding_ += op.bytes();
  // Set under the lock, so the last value set is the current total.
  if (obs::enabled()) {
    staged_gauge().set(static_cast<std::int64_t>(now_staged));
    staged_gauge().note_watermark();
  }
  stats_.bytes_staged += op.bytes();
  stats_.staged_high_watermark = std::max(stats_.staged_high_watermark, now_staged);
  if (options_.staging_backend) {
    op.device_offset = staging_device_offset_;
    staging_device_offset_ += op.bytes();
  } else {
    op.buffer = take_buffer_locked(op.bytes());
  }
}

void AsyncConnector::release_staging(AsyncOp& op, bool failed) {
  if (op.buffer == nullptr && !op.holds_staging && !failed) return;
  std::lock_guard lock(mutex_);
  recycle_locked(op.buffer);
  if (failed) ++stats_.failed_ops;
  if (!std::exchange(op.holds_staging, false)) return;
  APIO_INVARIANT(staged_outstanding_ >= op.bytes(), "staging accounting underflow");
  const std::uint64_t now_staged = staged_outstanding_ -= op.bytes();
  // Set under the lock, so the last value set is the current total.
  if (obs::enabled()) staged_gauge().set(static_cast<std::int64_t>(now_staged));
  if (options_.max_staged_bytes > 0) staging_cv_.notify_all();
}

AsyncConnector::Buffer AsyncConnector::take_buffer_locked(std::uint64_t bytes) {
  lent_bytes_ += bytes;
  lent_hwm_ = std::max(lent_hwm_, lent_bytes_);
  // An emptied bin stays, with its capacity, so the steady state
  // recycles without allocating.
  auto bin = free_buffers_.find(bytes);
  if (bin != free_buffers_.end() && !bin->second.empty()) {
    Buffer buffer = std::move(bin->second.back());
    bin->second.pop_back();
    free_bytes_ -= bytes;
    return buffer;
  }
  return std::make_shared<std::vector<std::byte>>();
}

void AsyncConnector::recycle_locked(Buffer& buffer) {
  // Checked and dropped under the lock: a shared prefetch buffer has two
  // holders, and whichever lets go last must be the one that returns it.
  if (buffer != nullptr && buffer.use_count() == 1) {
    const std::uint64_t bytes = buffer->size();
    APIO_INVARIANT(lent_bytes_ >= bytes, "buffer recycler lent-bytes underflow");
    lent_bytes_ -= bytes;
    // Capped at the lent high-water mark: the list never holds more than
    // the connector has already had out at once.
    if (free_bytes_ + bytes <= lent_hwm_) {
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
  RequestPtr tail;
  {
    std::lock_guard lock(mutex_);
    tail = last_op_;
  }
  tail->wait_ignore_error();
}

void AsyncConnector::close() {
  shutdown_machinery();
  if (file()->is_open()) file()->close();
}

AsyncStats AsyncConnector::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void AsyncConnector::clear_cache_locked() {
  for (auto& [key, entry] : cache_) recycle_locked(entry.data);
  cache_.clear();
}

}  // namespace apio::vol
