// The Virtual Object Layer: an abstract connector that intercepts
// container operations, mirroring HDF5's VOL architecture (Sec. II-A).
//
// Applications program against Connector; whether a dataset write is a
// blocking PFS transfer (NativeConnector) or an enqueued background
// operation behind a staging copy (AsyncConnector) is decided by which
// connector is plugged in — transparently, as with the HDF5 async VOL
// DLL the paper evaluates.
//
// Every IoRecord is built on the thread that issued the call and takes
// the issuing rank and the rank count from that thread's tag
// (debug::thread_tag()): a call inside pmpi::run reports its world's
// size, any other call 1.  Records are timed with obs::steady_seconds().
// While obs::enabled(), each record's blocking and completion times also
// feed the registry's io.blocking_seconds / io.completion_seconds
// histograms, here where records are emitted, observers or not.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/debug/thread_role.h"
#include "common/error.h"
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
  const h5::FilePtr& file() const { return file_; }

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

  /// Appends an observer to the connector's chain (Fig. 2 feedback
  /// hooks, TraceRecorder, metrics bridges — any number of subscribers).
  void add_observer(IoObserverPtr observer) { observers_->add(std::move(observer)); }

  /// Removes one previously added observer (by identity).
  void remove_observer(const IoObserverPtr& observer) { observers_->remove(observer); }

  /// The connector's observer chain.  The adaptive router shares its
  /// chain with the two connectors it drives.
  const CompositeObserverPtr& observer_chain() const { return observers_; }

 protected:
  explicit Connector(h5::FilePtr file) : file_(std::move(file)) {
    APIO_REQUIRE(file_ != nullptr, "a connector requires an open file");
  }

  /// Emission fast path: true when a record has a consumer, an observer
  /// or the registry (obs::enabled()); two relaxed loads otherwise.
  bool emits_records() const { return !observers_->empty() || obs::enabled(); }

  /// True when some subscriber consumes dataset_path/selection; the
  /// connector skips building those strings otherwise.
  bool observers_want_detail() const { return observers_->wants_detail(); }

  void observe(const IoRecord& record) {
    if (obs::enabled()) {
      static auto& blocking = obs::Registry::instance().histogram("io.blocking_seconds");
      static auto& completion =
          obs::Registry::instance().histogram("io.completion_seconds");
      blocking.record_seconds(record.blocking_seconds);
      completion.record_seconds(record.completion_seconds);
    }
    if (!observers_->empty()) observers_->on_io(record);
  }

  /// The one IoRecord builder, called on the issuing thread: op, bytes,
  /// the async flag, the issuing thread's rank and world size, and the
  /// call's timings.  describe() adds the detail of `ds` only when an
  /// observer wants it.
  IoRecord make_record(IoOp op, std::uint64_t bytes, bool async,
                       double issue_time, double blocking_seconds,
                       double completion_seconds, const h5::Dataset* ds = nullptr,
                       const h5::Selection& selection = h5::Selection::all()) const {
    IoRecord record;
    record.op = op;
    record.bytes = bytes;
    record.async = async;
    record.ranks = debug::thread_tag().world_size;
    record.origin_rank = debug::thread_tag().rank();
    record.issue_time = issue_time;
    record.blocking_seconds = blocking_seconds;
    record.completion_seconds = completion_seconds;
    if (ds != nullptr && observers_want_detail()) describe(record, *ds, selection);
    return record;
  }

  /// Adds the dataset path, selection token and byte offset of `ds` to
  /// `record` (two strings built per record; the path is an O(1) read of
  /// the one the dataset captured at creation).  Throws on a dataset of
  /// another file.
  void describe(IoRecord& record, const h5::Dataset& ds,
                const h5::Selection& selection) const {
    record.dataset_path = file()->path_of(ds);
    record.selection = selection_to_token(selection);
    record.offset = selection_offset_bytes(selection, ds.dims(), ds.element_size());
  }

 private:
  /// Shares the router's chain with its two connectors.
  friend class AdaptiveConnector;

  /// The container, never null.
  h5::FilePtr file_;
  CompositeObserverPtr observers_ = std::make_shared<CompositeObserver>();
};

using ConnectorPtr = std::shared_ptr<Connector>;

}  // namespace apio::vol
