// AsyncConnector: the asynchronous VOL connector — the system the
// paper evaluates (Sec. II-A, "Transparent Asynchronous Parallel I/O
// using Background Threads").
//
// Mechanics, mirroring hpc-io/vol-async:
//   * one background execution stream (Argobots-style, src/tasking)
//     drains a FIFO pool of container operations;
//   * dataset_write copies the caller's buffer into an internal staging
//     buffer and returns — that copy is the paper's *transactional
//     overhead* (t_transact in Eq. 2b); the background task later moves
//     the staged bytes to the target storage;
//   * operations on one connector execute in FIFO order (each task
//     depends on its predecessor), which is how the VOL connector keeps
//     HDF5's ordering semantics without fine-grained dependency
//     analysis;
//   * dataset_read either completes in the background (caller owns the
//     buffer until completion) or is served from the prefetch cache
//     (the BD-CATS-IO read path: first read synchronous, subsequent
//     time steps prefetched during compute).
//
// Initialization (stream + pool creation) and termination (drain +
// join) are timed; they are the t_init / t_term costs of Eq. 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "resilience/retry.h"
#include "sched/io_request.h"
#include "tasking/execution_stream.h"
#include "vol/connector.h"

namespace apio::vol {

/// Tunables for the async connector.
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
  /// Retry policy for background operations: a failed attempt is
  /// re-executed on the stream under backoff instead of failing the
  /// request outright.
  /// The default (max_attempts = 1) reproduces pre-resilience behavior.
  resilience::RetryPolicy retry;
  /// Degraded mode: when a write's retries are exhausted, replay the
  /// staged buffer synchronously through the native data path (outside
  /// policy and breaker) before giving up.  The request then completes
  /// successfully with Request::degraded() set.
  bool sync_fallback = false;
  /// Where retry backoff sleeps go.  Null = blocking wall sleeper;
  /// tests inject a resilience::ManualClock so nothing wall-sleeps.
  /// Backoff sleeps run on the background stream and stall the FIFO —
  /// exactly the semantics of a storage target that is down.
  resilience::Sleeper* sleeper = nullptr;
  /// Optional circuit breaker consulted before every attempt; may be
  /// shared across connectors targeting the same backend.
  resilience::CircuitBreakerPtr breaker;
  /// Fair-share identity charged for this connector's storage work when
  /// the file sits on a storage::QosBackend.  Empty = inherit the
  /// issuing thread's sched::ScopedSubmission binding (falling back to
  /// the QosBackend's default tenant).  The connector captures the
  /// identity at *issue* time and re-binds it on the background stream
  /// around each attempt, so admission always charges the tenant that
  /// issued the op, never the stream draining it.
  sched::TenantId tenant;
};

/// Counters exposed for tests, benches and the model.
///
/// Mutated under the connector's stats mutex by application threads
/// (enqueue paths) AND the background stream (staging accounting), so
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
  /// Re-executed attempts across all operations (excludes the first
  /// attempt of each).
  std::uint64_t retries = 0;
  /// Operations completed only via sync-fallback replay.
  std::uint64_t degraded_ops = 0;
  /// Operations that exhausted policy and failed.
  std::uint64_t failed_ops = 0;
  double init_seconds = 0.0;
  double term_seconds = 0.0;
};

class AsyncConnector final : public Connector {
 public:
  explicit AsyncConnector(h5::FilePtr file, AsyncOptions options = {},
                          const Clock* clock = nullptr);

  /// Drains outstanding work and joins the background stream, but —
  /// unlike close() — leaves the container open: several connectors may
  /// come and go over one file's lifetime.
  ~AsyncConnector() override;

  const h5::FilePtr& file() const override { return file_; }

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

  /// Drops any unconsumed prefetch buffers.
  void clear_cache();

 private:
  using Buffer = std::shared_ptr<std::vector<std::byte>>;

  /// A prefetch is cached under its dataset's identity and selection.
  struct CacheKey {
    const void* object = nullptr;
    h5::Selection selection;
    auto operator<=>(const CacheKey&) const = default;
  };

  struct CacheEntry {
    tasking::EventualPtr ready;
    Buffer data;
  };

  /// One background operation's full state: payload, identity, retry
  /// session, completion record and trace.  Heap-shared between the
  /// FIFO continuation and the background stream.
  struct AsyncOp;

  h5::FilePtr file_;
  AsyncOptions options_;
  WallClock wall_clock_;
  const Clock* clock_;

  tasking::PoolPtr pool_;
  std::unique_ptr<tasking::ExecutionStream> stream_;

  debug::RankedMutex<debug::LockRank::kVolConnector> order_mutex_;
  tasking::EventualPtr last_op_;

  debug::RankedMutex<debug::LockRank::kVolCache> cache_mutex_;
  std::map<CacheKey, CacheEntry> cache_;

  mutable debug::RankedMutex<debug::LockRank::kCounters> stats_mutex_;
  AsyncStats stats_;
  std::atomic<std::uint64_t> staging_device_offset_{0};
  std::condition_variable_any staging_cv_;
  /// Guards the staging budget, its high-water mark and the buffer
  /// recycler's free list.
  debug::RankedMutex<debug::LockRank::kVolStaging> staging_mutex_;
  std::uint64_t staged_outstanding_ = 0;
  std::uint64_t staged_hwm_ = 0;
  /// Recycled staging and prefetch buffers, binned by exact size, so a
  /// take or a give is O(1).  Holds at most staged_hwm_ bytes.
  std::unordered_map<std::uint64_t, std::vector<Buffer>> free_buffers_;
  std::uint64_t free_bytes_ = 0;

  /// Set by shutdown_machinery(); read by every entry point.  Atomic:
  /// a close() racing in-flight operations must fail them with
  /// StateError, not tear a plain bool.
  std::atomic<bool> closed_{false};

  /// The one submission path, for every entry point: mints and binds
  /// the op's trace, opens its submit phase, runs `prepare` (what the
  /// entry point adds: the write's stage copy, the read's destination,
  /// the prefetch's buffer and cache eventual, the flush's lane),
  /// resolves the RequestInfo, captures the completion record, then
  /// chains the op behind the FIFO tail.  The op enters the pool when its predecessor reaches its
  /// final outcome, so successors wait out a predecessor's retries.
  /// Staging budget taken by `prepare` is returned if the op throws
  /// before reaching the FIFO.
  template <typename Prepare>
  RequestPtr submit(obs::IoOp kind, const h5::Dataset* ds,
                    const h5::Selection& selection, std::uint64_t bytes,
                    double t0, Prepare&& prepare);

  /// Runs the op on the background stream: retries inline under the
  /// op's session (the FIFO chain keeps at most one of this connector's
  /// ops in its pool, so nothing else could run between attempts), then
  /// degrades (write sync-fallback) or fails the request.
  void run_attempt(const std::shared_ptr<AsyncOp>& op);

  /// Performs the actual storage transfer for the op's kind.
  void execute_op(AsyncOp& op);

  /// The write's staged bytes, read back once from the staging device
  /// when one is configured.
  std::span<const std::byte> staged_payload(AsyncOp& op);

  /// The one final-outcome path (`error` null on success): fills the
  /// shared RequestOutcome, returns the staging budget and the op's
  /// buffer (before completion, so a prefetch's consumer holds the
  /// buffer's last reference and can recycle it), updates
  /// stats/counters, emits the record (success only), seals the trace,
  /// then completes the eventual.
  void finish(const std::shared_ptr<AsyncOp>& op, std::exception_ptr error);

  /// Drains and joins the background machinery without closing the file.
  void shutdown_machinery();

  /// Takes the op's bytes from the max_staged_bytes budget (blocking
  /// while it is exhausted); release_staging() returns them exactly once
  /// and recycles the op's buffer.
  void take_staging(AsyncOp& op);
  void release_staging(AsyncOp& op);

  /// A buffer of exactly `bytes` from the free list, or a fresh empty
  /// one (the caller sizes it).  A recycled buffer's contents are stale.
  Buffer take_buffer(std::uint64_t bytes);
  /// Drops the caller's reference; when it was the only one and the
  /// free list has room, the buffer goes back on the list.
  void recycle(Buffer& buffer);
};

}  // namespace apio::vol
