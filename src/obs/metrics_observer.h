// MetricsObserver: subscribes the metrics registry to the unified
// IoRecord stream.  Attach one to a connector (add_observer) and the
// registry accumulates byte counters, op counts and latency histograms
// for every container operation — the third consumer of the stream
// next to the model history and trace sinks.
#pragma once

#include "obs/metrics.h"
#include "obs/record.h"

namespace apio::obs {

class MetricsObserver final : public IoObserver {
 public:
  /// Registers the ten "io.*" metrics.
  MetricsObserver();

  void on_io(const IoRecord& record) override;

 private:
  Counter& bytes_written_;
  Counter& bytes_read_;
  Counter& writes_;
  Counter& reads_;
  Counter& prefetches_;
  Counter& flushes_;
  Counter& cache_hits_;
  Counter& async_ops_;
  Histogram& blocking_;
  Histogram& completion_;
};

}  // namespace apio::obs
