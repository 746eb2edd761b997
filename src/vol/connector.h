// The Virtual Object Layer: an abstract connector that intercepts
// container operations, mirroring HDF5's VOL architecture (Sec. II-A).
//
// Applications program against Connector; whether a dataset write is a
// blocking PFS transfer (NativeConnector) or an enqueued background
// operation behind a staging copy (AsyncConnector) is decided by which
// connector is plugged in — transparently, as with the HDF5 async VOL
// DLL the paper evaluates.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>

#include "h5/file.h"
#include "obs/metrics.h"
#include "vol/observer.h"
#include "vol/request.h"
#include "vol/selection_token.h"

namespace apio::vol {

class Connector {
 public:
  virtual ~Connector() = default;

  /// The underlying container (metadata operations — create_group,
  /// create_dataset — go straight through; they are cheap and
  /// synchronous in the async VOL as well unless batched).
  virtual const h5::FilePtr& file() const = 0;

  /// Writes `data` into the selection of `ds`.  The returned request
  /// completes when the data is resident on the target storage.  For
  /// the async connector the call returns after the staging copy; the
  /// caller may reuse `data` immediately (the double-buffer guarantee).
  virtual RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                                   std::span<const std::byte> data) = 0;

  /// Reads the selection into `out`.  For the async connector the
  /// caller must keep `out` alive and untouched until the request
  /// completes, unless the read is served from the prefetch cache (then
  /// it completes immediately).
  virtual RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                                  std::span<std::byte> out) = 0;

  /// Hints that the selection will be read soon; the async connector
  /// pulls it into a node-local cache in the background (the
  /// prefetching path BD-CATS-IO exercises).  No-op on the native
  /// connector.
  virtual void prefetch(h5::Dataset ds, const h5::Selection& selection) = 0;

  /// Flushes container metadata and the backend.
  virtual RequestPtr flush() = 0;

  /// Blocks until every outstanding operation has completed.
  virtual void wait_all() = 0;

  /// Completes outstanding work, flushes and closes the container.
  virtual void close() = 0;

  /// Number of ranks the caller reports for IoRecords (for the model's
  /// scaling features).  Defaults to 1.  Virtual so interposer and
  /// routing connectors (passthrough, trace, adaptive) also set it on
  /// the connectors that build the records.  Atomic: it may be read
  /// from several application threads while it is set.
  virtual void set_reported_ranks(int ranks) {
    reported_ranks_.store(ranks, std::memory_order_relaxed);
  }
  int reported_ranks() const {
    return reported_ranks_.load(std::memory_order_relaxed);
  }

  /// Appends an observer to the connector's chain (Fig. 2 feedback
  /// hooks, trace sinks, metrics bridges — any number of subscribers).
  /// Virtual so routing/interposer connectors (adaptive, and the
  /// passthrough base of trace) forward subscriptions to the connectors
  /// that actually emit records.
  virtual void add_observer(IoObserverPtr observer) {
    observers_->add(std::move(observer));
  }

  /// Removes one previously added observer (by identity).
  virtual void remove_observer(const IoObserverPtr& observer) {
    observers_->remove(observer);
  }

  /// The connector's own observer chain.  Routing connectors keep their
  /// chain empty and forward add_observer() to their inner connectors.
  const CompositeObserverPtr& observer_chain() const { return observers_; }

 protected:
  /// Emission fast path: one relaxed load when nobody subscribed.
  bool has_observers() const { return !observers_->empty(); }

  /// True when some subscriber consumes dataset_path/selection; the
  /// connector skips building those strings otherwise.
  bool observers_want_detail() const { return observers_->wants_detail(); }

  void observe(const IoRecord& record) {
    if (!observers_->empty()) observers_->on_io(record);
  }

  /// The one IoRecord builder: op, bytes, the async flag, reported
  /// ranks, the issuing rank and the call's timings.  The dataset path
  /// and selection token of `ds` are added only when an observer wants
  /// them (each is a string built per record; the path is an O(1) read
  /// of the one the dataset captured at creation).
  IoRecord make_record(IoOp op, std::uint64_t bytes, bool async,
                       double issue_time, double blocking_seconds,
                       double completion_seconds, const h5::Dataset* ds = nullptr,
                       const h5::Selection& selection = h5::Selection::all()) const {
    IoRecord record;
    record.op = op;
    record.bytes = bytes;
    record.async = async;
    record.ranks = reported_ranks();
    record.origin_rank = obs::thread_rank();
    record.issue_time = issue_time;
    record.blocking_seconds = blocking_seconds;
    record.completion_seconds = completion_seconds;
    if (ds != nullptr && observers_want_detail()) {
      record.dataset_path = file()->path_of(*ds);
      record.selection = selection_to_token(selection);
    }
    return record;
  }

 private:
  CompositeObserverPtr observers_ = std::make_shared<CompositeObserver>();
  std::atomic<int> reported_ranks_{1};
};

using ConnectorPtr = std::shared_ptr<Connector>;

}  // namespace apio::vol
