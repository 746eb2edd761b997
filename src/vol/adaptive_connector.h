// AdaptiveConnector: the paper's end goal made concrete — "a
// transparent and adaptive asynchronous I/O interface to automatically
// enable asynchronous I/O when needed without placing the burden on
// application developers" (Sec. II-B).
//
// The connector owns a native (sync) and an async connector over the
// same container plus a ModeAdvisor.  Every transfer is reported to the
// advisor (both connectors share it as their observer); each
// dataset_write consults the advisor's Eq. 2a/2b comparison for the
// upcoming phase and routes accordingly.  Compute phases are reported
// by the application through on_compute_phase() — the one hook the
// paper's model needs that an I/O library cannot observe on its own.
#pragma once

#include <atomic>

#include "model/advisor.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"

namespace apio::vol {

/// Routing statistics.
struct AdaptiveStats {
  std::uint64_t writes_sync = 0;
  std::uint64_t writes_async = 0;
  std::uint64_t reads_sync = 0;
  std::uint64_t reads_async = 0;
};

class AdaptiveConnector final : public Connector {
 public:
  AdaptiveConnector(h5::FilePtr file, model::ModeAdvisorPtr advisor = nullptr,
                    AsyncOptions async_options = {});

  const h5::FilePtr& file() const override { return file_; }

  /// Routed per the advisor's recommendation for (bytes, ranks).
  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override;

  /// Reads route through async when a prefetched copy may exist (cache
  /// hits are free wins) and the advisor does not veto; otherwise sync.
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override;

  void prefetch(h5::Dataset ds, const h5::Selection& selection) override;
  RequestPtr flush() override;
  void wait_all() override;
  void close() override;

  /// Subscriptions and the reported rank count go to both inner
  /// connectors — they, not the router, emit the IoRecords.
  void set_reported_ranks(int ranks) override;
  void add_observer(IoObserverPtr observer) override;
  void remove_observer(const IoObserverPtr& observer) override;

  /// Reports a completed compute phase (feeds t_comp of Eq. 2).
  void on_compute_phase(double seconds) { advisor_->record_compute(seconds); }

  /// The mode the next write of this size/scale would take.
  model::IoMode planned_mode(std::uint64_t bytes) const;

  const model::ModeAdvisorPtr& advisor() const { return advisor_; }
  AdaptiveStats adaptive_stats() const;

 private:
  h5::FilePtr file_;
  model::ModeAdvisorPtr advisor_;
  NativeConnector sync_;
  AsyncConnector async_;
  std::atomic<std::uint64_t> writes_sync_{0};
  std::atomic<std::uint64_t> writes_async_{0};
  std::atomic<std::uint64_t> reads_sync_{0};
  std::atomic<std::uint64_t> reads_async_{0};
};

}  // namespace apio::vol
