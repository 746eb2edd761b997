#include "vol/native_connector.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "sched/io_request.h"

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

NativeConnector::NativeConnector(h5::FilePtr file) : file_(std::move(file)) {
  APIO_REQUIRE(file_ != nullptr, "NativeConnector requires an open file");
}

void NativeConnector::report(IoOp op, std::uint64_t bytes, double t0,
                             const h5::Dataset* ds, const h5::Selection& selection) {
  if (!has_observers()) return;
  const double dt = clock_.now() - t0;
  observe(make_record(op, bytes, /*async=*/false, t0, dt, dt, ds, selection));
}

RequestPtr NativeConnector::dataset_write(h5::Dataset ds,
                                          const h5::Selection& selection,
                                          std::span<const std::byte> data) {
  const double t0 = clock_.now();
  traced_call(IoOp::kWrite, data.size(), sync_write_hist(), sync_bytes_written(),
              [&] { ds.write_raw(selection, data); });
  report(IoOp::kWrite, data.size(), t0, &ds, selection);
  return completed_request();
}

RequestPtr NativeConnector::dataset_read(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<std::byte> out) {
  const double t0 = clock_.now();
  traced_call(IoOp::kRead, out.size(), sync_read_hist(), sync_bytes_read(),
              [&] { ds.read_raw(selection, out); });
  report(IoOp::kRead, out.size(), t0, &ds, selection);
  return completed_request();
}

void NativeConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  // Synchronous mode has no background machinery to prefetch with; the
  // hint is still reported (taking no time) so trace sinks capture the
  // full call stream.
  if (has_observers()) {
    observe(make_record(IoOp::kPrefetch,
                        selection.npoints(ds.dims()) * ds.element_size(),
                        /*async=*/false, clock_.now(), 0.0, 0.0, &ds, selection));
  }
}

RequestPtr NativeConnector::flush() {
  const double t0 = clock_.now();
  file_->flush();
  report(IoOp::kFlush, 0, t0);
  return completed_request();
}

void NativeConnector::close() {
  if (file_->is_open()) file_->close();
}

}  // namespace apio::vol
