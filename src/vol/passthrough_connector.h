// PassthroughConnector: VOL stacking, as HDF5's passthrough VOL
// connector demonstrates.  Wraps any Connector and forwards every
// operation while accumulating per-operation statistics — bytes moved,
// call counts, blocking time — independently of the inner connector's
// own instrumentation.  Useful for profiling an application without
// touching it (the "transparent" property Sec. II-A emphasises), and as
// the template for user-written interposer connectors.
#pragma once

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "vol/connector.h"

namespace apio::vol {

/// Aggregated interposer statistics.
struct PassthroughStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  double write_blocking_seconds = 0.0;
  double read_blocking_seconds = 0.0;
};

class PassthroughConnector final : public Connector {
 public:
  explicit PassthroughConnector(ConnectorPtr inner);

  const h5::FilePtr& file() const override { return inner_->file(); }

  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override;
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override;
  void prefetch(h5::Dataset ds, const h5::Selection& selection) override;
  RequestPtr flush() override;
  void wait_all() override { inner_->wait_all(); }
  void close() override { inner_->close(); }

  /// Interposers emit no records of their own; subscriptions land on
  /// the wrapped connector.
  void add_observer(IoObserverPtr observer) override {
    inner_->add_observer(std::move(observer));
  }
  void remove_observer(const IoObserverPtr& observer) override {
    inner_->remove_observer(observer);
  }

  PassthroughStats stats() const;
  const ConnectorPtr& inner() const { return inner_; }

 private:
  ConnectorPtr inner_;
  WallClock clock_;
  mutable debug::RankedMutex<debug::LockRank::kCounters> mutex_;
  PassthroughStats stats_;
};

}  // namespace apio::vol
