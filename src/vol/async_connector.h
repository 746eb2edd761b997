// AsyncConnector: the asynchronous VOL connector — the system the
// paper evaluates (Sec. II-A, "Transparent Asynchronous Parallel I/O
// using Background Threads").
//
// Mechanics, mirroring hpc-io/vol-async:
//   * one background thread per connector (its execution stream, the
//     role Argobots' ABT_xstream plays in vol-async) drains a FIFO queue
//     of container operations;
//   * dataset_write copies the caller's buffer into an internal staging
//     buffer and returns — that copy is the paper's *transactional
//     overhead* (t_transact in Eq. 2b); the background thread later
//     moves the staged bytes to the target storage;
//   * operations on one connector execute in FIFO order: each op goes
//     straight onto the queue, and the one stream runs it to its
//     outcome before popping the next, which is how the VOL connector
//     keeps HDF5's ordering semantics without fine-grained dependency
//     analysis.  A storage::ResilientBackend under the file retries
//     inline on that stream, so successors wait out a retried op;
//   * dataset_read either completes in the background (caller owns the
//     buffer until completion) or is served from the prefetch cache
//     (the BD-CATS-IO read path: first read synchronous, subsequent
//     time steps prefetched during compute);
//   * one mutex guards all of the connector's shared state (FIFO,
//     staging budget, buffer recycler, prefetch cache, stats), so a
//     DRAM-staged write locks twice on its caller (budget and buffer,
//     then push) and twice on the stream (pop, then settle).
//
// Initialization (thread start) and termination (drain + join) are
// timed; they are the t_init / t_term costs of Eq. 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/debug/lock_rank.h"
#include "sched/io_request.h"
#include "vol/connector.h"

namespace apio::vol {

/// Tunables for the async connector.  A storage::QosBackend under the
/// file charges each op to the sched::ScopedSubmission binding of the
/// thread that issued it (unbound: its default tenant): the op captures
/// the binding at issue and re-binds it on the background stream around
/// its execution, so the stream draining it is never charged.
struct AsyncOptions {
  /// Upper bound on bytes staged but not yet written; dataset_write
  /// blocks (back-pressure) when exceeded.  0 = unlimited.
  std::uint64_t max_staged_bytes = 0;
  /// Optional staging device: when set, the transactional copy lands on
  /// this backend (e.g. a node-local SSD file) instead of a DRAM
  /// buffer, trading staging speed for capacity — the paper's
  /// "caching data either to a memory buffer on the same node ... or to
  /// a node-local SSD" (Sec. II-C).  The region is bump-allocated and
  /// recycled only across connector lifetimes.
  storage::BackendPtr staging_backend;
};

/// Counters exposed for tests, benches and the model.
///
/// Mutated under the connector's one mutex by application threads
/// (enqueue paths) AND the background stream (failure accounting), so
/// they must never be read field-by-field while the connector is live;
/// stats() returns a coherent snapshot taken under the same mutex.
struct AsyncStats {
  std::uint64_t writes_enqueued = 0;
  std::uint64_t reads_enqueued = 0;
  std::uint64_t prefetches_enqueued = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t bytes_staged = 0;
  std::uint64_t staged_high_watermark = 0;
  /// Always 0: the connector executes each op once, and retries happen
  /// below it (storage::ResilientBackend::retries()).  Kept because the
  /// bench/e2e driver sums it into its resilience.retries line.
  std::uint64_t retries = 0;
  /// Operations that completed with an error.
  std::uint64_t failed_ops = 0;
  double init_seconds = 0.0;
  double term_seconds = 0.0;
};

class AsyncConnector final : public Connector {
 public:
  explicit AsyncConnector(h5::FilePtr file, AsyncOptions options = {});

  /// Drains outstanding work and joins the background stream, but —
  /// unlike close() — leaves the container open: several connectors may
  /// come and go over one file's lifetime.
  ~AsyncConnector() override;

  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override;
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override;
  void prefetch(h5::Dataset ds, const h5::Selection& selection) override;
  RequestPtr flush() override;
  void wait_all() override;
  void close() override;

  /// Coherent snapshot of the counters; safe to call from any thread
  /// while the background stream is running.
  AsyncStats stats() const;

 private:
  using Buffer = std::shared_ptr<std::vector<std::byte>>;

  /// A prefetch is cached under its dataset's identity and selection.
  struct CacheKey {
    const void* object = nullptr;
    h5::Selection selection;
    auto operator<=>(const CacheKey&) const = default;
  };

  /// A prefetch's op is never returned to its caller: the entry holds
  /// it, and a read that finds the entry waits on it.
  struct CacheEntry {
    RequestPtr ready;
    Buffer data;
  };

  /// One background operation's full state: payload, record and
  /// trace.  It is the Request its caller waits on, so one heap
  /// object is shared by the queue, the caller, last_op_ and a
  /// prefetch's cache entry.
  struct AsyncOp;

  AsyncOptions options_;

  /// The connector's one lock: guards the FIFO queue, its stop flag
  /// and last_op_, the staging budget and device offset, the buffer
  /// recycler, the prefetch cache and stats_.  Helpers named *_locked
  /// expect it held.
  mutable debug::RankedMutex<debug::LockRank::kVolConnector> mutex_;
  std::condition_variable_any queue_cv_;
  std::deque<std::shared_ptr<AsyncOp>> queue_;
  /// Set by shutdown_machinery(): the stream drains the queue and exits,
  /// and a push after it fails its op with StateError.
  bool stopping_ = false;
  RequestPtr last_op_;

  std::map<CacheKey, CacheEntry> cache_;
  AsyncStats stats_;

  /// Wakes writers parked on the max_staged_bytes budget.
  std::condition_variable_any staging_cv_;
  std::uint64_t staged_outstanding_ = 0;
  /// Bytes of recycler buffers out of the free list (stage copies,
  /// staging-device read-backs and prefetch buffers), and their
  /// high-water mark.
  std::uint64_t lent_bytes_ = 0;
  std::uint64_t lent_hwm_ = 0;
  /// Recycled buffers, binned by exact size, so a take or a give is
  /// O(1).  Holds at most lent_hwm_ bytes.
  std::unordered_map<std::uint64_t, std::vector<Buffer>> free_buffers_;
  std::uint64_t free_bytes_ = 0;
  /// Bump allocator of the staging device's region.
  std::uint64_t staging_device_offset_ = 0;

  /// Set by shutdown_machinery(); read by every entry point.  Atomic:
  /// a close() racing in-flight operations must fail them with
  /// StateError, not tear a plain bool.
  std::atomic<bool> closed_{false};

  /// The background stream; declared last, after everything it uses.
  std::thread stream_;

  /// The one submission path, for every entry point: mints and binds
  /// the op's trace, opens its submit phase, runs `prepare` (what the
  /// entry point adds: the write's stage copy, the read's destination,
  /// the prefetch's buffer, the flush's lane), builds the op's one
  /// record, then pushes the op onto
  /// the queue and counts it as enqueued, in one hold.  Returns the op
  /// for every kind but a prefetch.  Staging budget taken by `prepare`
  /// is returned if the op throws before reaching the queue.
  template <typename Prepare>
  RequestPtr submit(std::shared_ptr<AsyncOp> op, const h5::Dataset* ds,
                    const h5::Selection& selection, double t0,
                    Prepare&& prepare);

  /// The background stream: pops ops in FIFO order and runs each, until
  /// stopping_ is set and the queue is empty.
  void run_stream();

  /// Runs the op on the background stream: one kAttempt phase around
  /// the storage transfer, then finish() with its outcome.
  void run_attempt(const std::shared_ptr<AsyncOp>& op);

  /// Performs the actual storage transfer for the op's kind; a write
  /// staged on a device first reads its bytes back into a recycled
  /// buffer.
  void execute_op(AsyncOp& op);

  /// The one final-outcome path (`error` null on success): returns the
  /// staging budget and the op's buffer (before completion, so a
  /// prefetch's consumer holds the buffer's last reference and can
  /// recycle it), counts a failure, emits the record (success only),
  /// seals the trace, then completes the op.  The caller's reference
  /// keeps the op alive across its completion.
  void finish(const std::shared_ptr<AsyncOp>& op, std::exception_ptr error);

  /// Drains and joins the background machinery without closing the file.
  void shutdown_machinery();

  /// Takes the op's bytes from the max_staged_bytes budget (blocking
  /// while it is exhausted) and, for a DRAM-staged write, its staging
  /// buffer, in one hold.  release_staging() returns both exactly once
  /// and counts a failed op in the same hold.
  void take_staging(AsyncOp& op);
  void release_staging(AsyncOp& op, bool failed);

  /// A buffer of exactly `bytes` from the free list, or a fresh empty
  /// one (the caller sizes it).  A recycled buffer's contents are stale.
  Buffer take_buffer_locked(std::uint64_t bytes);
  /// Drops the caller's reference; when it was the only one and the
  /// free list has room, the buffer goes back on the list.  Every
  /// buffer from take_buffer_locked() is dropped through here, so the
  /// lent count stays exact.
  void recycle_locked(Buffer& buffer);
  void clear_cache_locked();
};

}  // namespace apio::vol
