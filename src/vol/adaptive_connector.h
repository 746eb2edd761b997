// AdaptiveConnector: the paper's end goal made concrete — "a
// transparent and adaptive asynchronous I/O interface to automatically
// enable asynchronous I/O when needed without placing the burden on
// application developers" (Sec. II-B).
//
// The connector owns a native (sync) and an async connector over the
// same container plus a ModeAdvisor.  The two connectors share the
// router's observer chain, so every transfer is reported to the advisor
// and to every observer added to the router, whichever route it took;
// each dataset_write consults the advisor's Eq. 2a/2b comparison for the
// upcoming phase and routes accordingly.  The advisor learns compute
// phases from the obs::EpochScope markers the application already
// emits around each epoch, so adaptivity needs no extra call.
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

  /// Routed per the advisor's recommendation for (bytes, ranks).  A
  /// sync-routed write or read first waits out the async FIFO, so it
  /// never overtakes an earlier async write.
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

  /// The mode the calling thread's next write of this size would take;
  /// the scale is the thread's pmpi world size.
  model::IoMode planned_mode(std::uint64_t bytes) const;

  const model::ModeAdvisorPtr& advisor() const { return advisor_; }
  AdaptiveStats adaptive_stats() const;
  /// The async route's own accounting (AsyncConnector::stats()).
  AsyncStats async_stats() const { return async_.stats(); }

 private:
  model::ModeAdvisorPtr advisor_;
  NativeConnector sync_;
  AsyncConnector async_;
  std::atomic<std::uint64_t> writes_sync_{0};
  std::atomic<std::uint64_t> writes_async_{0};
  std::atomic<std::uint64_t> reads_sync_{0};
  std::atomic<std::uint64_t> reads_async_{0};
};

}  // namespace apio::vol
