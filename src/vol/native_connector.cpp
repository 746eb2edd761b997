#include "vol/native_connector.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/io_request.h"
#include "vol/selection_token.h"

namespace apio::vol {
namespace {

RequestPtr completed_request() {
  return std::make_shared<Request>(tasking::Eventual::make_ready());
}

obs::Histogram& sync_write_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.sync.write_seconds");
  return h;
}

obs::Histogram& sync_read_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.sync.read_seconds");
  return h;
}

obs::Counter& sync_bytes_written() {
  static auto& c = obs::Registry::instance().counter("vol.sync.bytes_written");
  return c;
}

obs::Counter& sync_bytes_read() {
  static auto& c = obs::Registry::instance().counter("vol.sync.bytes_read");
  return c;
}

/// Runs one synchronous call as a traced request, the way AsyncConnector
/// traces its ops: mint and bind a context, time `transfer` as the
/// request's single attempt (which also feeds `latency` and
/// `byte_counter` when metrics are on), then seal the trace.
template <typename Transfer>
void traced_call(obs::IoOp op, std::uint64_t bytes, obs::Histogram& latency,
                 obs::Counter& byte_counter, Transfer&& transfer) {
  auto& collector = obs::trace::TraceCollector::instance();
  const obs::trace::TraceContext trace = collector.start_trace();
  const double start = trace.recording() ? obs::steady_seconds() : 0.0;
  obs::trace::ScopedTraceContext bind(trace);
  const auto seal = [&](bool failed) {
    if (!trace.recording()) return;
    collector.complete(trace, op, sched::current_tenant(), bytes, failed, start,
                       obs::steady_seconds());
  };
  try {
    obs::trace::ScopedPhase attempt(obs::trace::Phase::kAttempt, bytes, nullptr,
                                    latency, &byte_counter);
    transfer();
  } catch (...) {
    seal(true);
    throw;
  }
  seal(false);
}

}  // namespace

NativeConnector::NativeConnector(h5::FilePtr file, const Clock* clock)
    : file_(std::move(file)), clock_(clock != nullptr ? clock : &wall_clock_) {
  APIO_REQUIRE(file_ != nullptr, "NativeConnector requires an open file");
}

RequestPtr NativeConnector::dataset_write(h5::Dataset ds,
                                          const h5::Selection& selection,
                                          std::span<const std::byte> data) {
  const double t0 = clock_->now();
  traced_call(IoOp::kWrite, data.size(), sync_write_hist(), sync_bytes_written(),
              [&] { ds.write_raw(selection, data); });
  const double dt = clock_->now() - t0;
  if (has_observers()) {
    IoRecord record;
    record.op = IoOp::kWrite;
    record.bytes = data.size();
    record.ranks = reported_ranks();
    record.origin_rank = obs::thread_rank();
    record.issue_time = t0;
    record.blocking_seconds = dt;
    record.completion_seconds = dt;
    record.async = false;
    if (observers_want_detail()) {
      record.dataset_path = file_->path_of(ds);
      record.selection = selection_to_token(selection);
    }
    observe(record);
  }
  return completed_request();
}

RequestPtr NativeConnector::dataset_read(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<std::byte> out) {
  const double t0 = clock_->now();
  traced_call(IoOp::kRead, out.size(), sync_read_hist(), sync_bytes_read(),
              [&] { ds.read_raw(selection, out); });
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
    record.async = false;
    if (observers_want_detail()) {
      record.dataset_path = file_->path_of(ds);
      record.selection = selection_to_token(selection);
    }
    observe(record);
  }
  return completed_request();
}

void NativeConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  // Synchronous mode has no background machinery to prefetch with; the
  // hint is still reported so trace sinks capture the full call stream.
  if (has_observers()) {
    const double t0 = clock_->now();
    IoRecord record;
    record.op = IoOp::kPrefetch;
    record.bytes = selection.npoints(ds.dims()) * ds.element_size();
    record.ranks = reported_ranks();
    record.origin_rank = obs::thread_rank();
    record.issue_time = t0;
    record.async = false;
    if (observers_want_detail()) {
      record.dataset_path = file_->path_of(ds);
      record.selection = selection_to_token(selection);
    }
    observe(record);
  }
}

RequestPtr NativeConnector::flush() {
  const double t0 = clock_->now();
  file_->flush();
  const double dt = clock_->now() - t0;
  if (has_observers()) {
    IoRecord record;
    record.op = IoOp::kFlush;
    record.ranks = reported_ranks();
    record.origin_rank = obs::thread_rank();
    record.issue_time = t0;
    record.blocking_seconds = dt;
    record.completion_seconds = dt;
    record.async = false;
    observe(record);
  }
  return completed_request();
}

void NativeConnector::close() {
  if (file_->is_open()) file_->close();
}

}  // namespace apio::vol
