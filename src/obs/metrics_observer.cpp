#include "obs/metrics_observer.h"

namespace apio::obs {

MetricsObserver::MetricsObserver()
    : bytes_written_(Registry::instance().counter("io.bytes_written")),
      bytes_read_(Registry::instance().counter("io.bytes_read")),
      writes_(Registry::instance().counter("io.writes")),
      reads_(Registry::instance().counter("io.reads")),
      prefetches_(Registry::instance().counter("io.prefetches")),
      flushes_(Registry::instance().counter("io.flushes")),
      cache_hits_(Registry::instance().counter("io.cache_hits")),
      async_ops_(Registry::instance().counter("io.async_ops")),
      blocking_(Registry::instance().histogram("io.blocking_seconds")),
      completion_(Registry::instance().histogram("io.completion_seconds")) {}

void MetricsObserver::on_io(const IoRecord& record) {
  switch (record.op) {
    case IoOp::kWrite:
      writes_.increment();
      bytes_written_.add(record.bytes);
      break;
    case IoOp::kRead:
      reads_.increment();
      bytes_read_.add(record.bytes);
      break;
    case IoOp::kPrefetch:
      prefetches_.increment();
      break;
    case IoOp::kFlush:
      flushes_.increment();
      break;
  }
  if (record.cache_hit) cache_hits_.increment();
  if (record.async) async_ops_.increment();
  blocking_.record_seconds(record.blocking_seconds);
  completion_.record_seconds(record.completion_seconds);
}

}  // namespace apio::obs
