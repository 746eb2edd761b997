#include "vol/native_connector.h"

#include "obs/metrics.h"
#include "sched/io_request.h"

namespace apio::vol {
namespace {

/// Every op completes before it returns, so all of them share one
/// completed request (no error, no identity) instead of allocating one
/// each.
const RequestPtr& completed_request() {
  static const RequestPtr done = Request::make_ready();
  return done;
}

obs::Histogram& sync_write_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.sync.write_seconds");
  return h;
}

obs::Histogram& sync_read_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.sync.read_seconds");
  return h;
}

/// Runs one synchronous call as a traced request, the way AsyncConnector
/// traces its ops: mint and bind a context, time `transfer` as the
/// request's single attempt (which also feeds `latency` when metrics
/// are on), then seal the trace.  Returns the context, for the record.
template <typename Transfer>
obs::trace::TraceContext traced_call(obs::IoOp op, std::uint64_t bytes,
                                     obs::Histogram& latency, Transfer&& transfer) {
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
                                    latency);
    transfer();
  } catch (...) {
    seal(true);
    throw;
  }
  seal(false);
  return trace;
}

}  // namespace

void NativeConnector::report(IoOp op, std::uint64_t bytes, double t0,
                             const obs::trace::TraceContext& trace,
                             const h5::Dataset* ds, const h5::Selection& selection) {
  if (!emits_records()) return;
  const double dt = obs::steady_seconds() - t0;
  IoRecord record = make_record(op, bytes, /*async=*/false, t0, dt, dt, ds, selection);
  record.trace_id = trace.trace_id;
  record.span_id = trace.span_id;
  observe(record);
}

RequestPtr NativeConnector::dataset_write(h5::Dataset ds,
                                          const h5::Selection& selection,
                                          std::span<const std::byte> data) {
  const double t0 = obs::steady_seconds();
  const auto trace = traced_call(IoOp::kWrite, data.size(), sync_write_hist(),
                                 [&] { ds.write_raw(selection, data); });
  report(IoOp::kWrite, data.size(), t0, trace, &ds, selection);
  return completed_request();
}

RequestPtr NativeConnector::dataset_read(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<std::byte> out) {
  const double t0 = obs::steady_seconds();
  const auto trace = traced_call(IoOp::kRead, out.size(), sync_read_hist(),
                                 [&] { ds.read_raw(selection, out); });
  report(IoOp::kRead, out.size(), t0, trace, &ds, selection);
  return completed_request();
}

void NativeConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  // Synchronous mode has no background machinery to prefetch with; the
  // hint is still reported (taking no time) so trace sinks capture the
  // full call stream.
  if (emits_records()) {
    observe(make_record(IoOp::kPrefetch,
                        selection.npoints(ds.dims()) * ds.element_size(),
                        /*async=*/false, obs::steady_seconds(), 0.0, 0.0, &ds,
                        selection));
  }
}

RequestPtr NativeConnector::flush() {
  const double t0 = obs::steady_seconds();
  file()->flush();
  report(IoOp::kFlush, 0, t0);
  return completed_request();
}

void NativeConnector::close() {
  if (file()->is_open()) file()->close();
}

}  // namespace apio::vol
