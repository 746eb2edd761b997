// CachedBackend: a write-back burst-buffer tier in front of a PFS
// backend, with bbThemis-style selectable visibility (ROADMAP item:
// after-write / after-close / after-epoch / after-job).
//
// The cache interposes a node-local staging area between the
// application and the parallel file system: its own paged
// MemoryBackend, which mirrors the inner backend's byte addresses.
// Writes land in staging and are absorbed off the critical path; the
// consistency mode decides when the dirty extents become visible on the
// PFS tier:
//
//   kAfterWrite  write-through: every write is forwarded immediately
//                (the staging copy only accelerates re-reads).
//   kAfterClose  dirty extents drain when the container announces
//                close() — the POSIX-like default.
//   kAfterEpoch  dirty extents drain at every epoch boundary: the
//                cache subscribes to the obs::EpochSink marker stream
//                and flushes on each kEnd event, so a consumer
//                (BD-CATS) can read step k while the producer (VPIC)
//                is still writing step k+1.
//   kAfterJob    nothing drains until drain() is called explicitly
//                (or the cache is destroyed) — job-end visibility.
//
// Reads are served read-through: missing ranges are fetched from the
// PFS into staging, and staged bytes are evicted least-recently-used
// when the configured capacity is exceeded (dirty victims are written
// back first — the cache never silently drops unflushed data).  The
// LRU unit is one staging page (MemoryBackend::kPageBytes), and a page
// that no longer holds a staged byte is freed, so the footprint stays
// within the capacity plus one page.  Staged, dirty and rewritten bytes
// are each one ByteRanges set (byte-granular, coalesced, with a running
// byte total), and every drain goes to the PFS as vectored write_v
// batches, preserving the aggregation fast path.  A drain copies
// nothing: its extents are spans over the staging pages (one per page),
// pinned for the duration of the inner write, so a write racing the
// drain lands in a copy of the page and stays dirty for the next drain.
// Each batch is written inside a MemoryBackend::Lend scope, so a
// memory leaf, however deep under inline decorators, keeps every whole
// dirty page by sharing it; staging and leaf then both copy that page
// before writing it, and the next staged write of it lands in a fresh
// page.
// The lowest-offset dirty interval is always written last, whole, so a
// container's shadow-update discipline (header block at offset 0 points
// at data written before it) survives a mid-drain crash.
//
// Failure semantics: a drain that fails (e.g. the resilience breaker
// is open on the PFS tier) surfaces the inner error — TransientIoError
// stays TransientIoError — and RETAINS the dirty set, so the next
// drain retries the same extents.  Epoch-driven drains run inside the
// EpochScope destructor and therefore swallow the error (counted in
// CacheSnapshot::flush_failures) instead of throwing through a
// destructor; the retained dirty set drains at the next boundary or at
// close().
//
// Observability: cache_snapshot() is the one copy of every count.  The
// registry gets only the io.cache.{dirty_bytes,cached_bytes} gauges,
// for their high-water marks, and only while obs is enabled.
//
// Composition: always the OUTERMOST decorator (BackendStack stage
// order leaf < throttled < resilient < qos < cached), so cache hits
// bypass QoS admission and the PFS throttle entirely, and drains pass
// through retry/admission like any other PFS traffic.  Construct it
// through BackendStack::cached() — apio_lint flags direct make_shared
// nesting (rule `cached-backend`).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/debug/lock_rank.h"
#include "obs/epoch_analyzer.h"
#include "storage/backend.h"
#include "storage/byte_ranges.h"
#include "storage/memory_backend.h"

namespace apio::storage {

/// When staged writes become visible on the inner (PFS) backend.
enum class CacheConsistency : int {
  kAfterWrite = 0,
  kAfterClose = 1,
  kAfterEpoch = 2,
  kAfterJob = 3,
};

const char* to_string(CacheConsistency mode);

/// Parses "after-write" / "after-close" / "after-epoch" / "after-job"
/// (CLI spelling).  Returns false on unknown input.
bool parse_cache_consistency(const std::string& text, CacheConsistency& out);

struct CacheOptions {
  CacheConsistency consistency = CacheConsistency::kAfterClose;
  /// Staged-byte budget; LRU eviction of whole staging pages keeps the
  /// cache at or under it.  Must hold at least one page.
  std::uint64_t capacity_bytes = 64ull << 20;
};

/// Point-in-time cache counters (apio_profile's cache: block prints
/// them).
struct CacheSnapshot {
  std::uint64_t hits = 0;          ///< reads served entirely from staging
  std::uint64_t misses = 0;        ///< reads that fetched from the PFS
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;    ///< bytes fetched from the PFS tier
  std::uint64_t flushes = 0;       ///< drain batches written to the PFS
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flush_failures = 0;  ///< drains that surfaced an error
  std::uint64_t evictions = 0;     ///< LRU pages dropped from staging
  std::uint64_t writeback_bytes = 0;  ///< dirty bytes flushed by eviction
  std::uint64_t lost_bytes = 0;    ///< dirty bytes undrainable at destruction
  std::uint64_t dirty_bytes = 0;   ///< currently staged, not yet on the PFS
  std::uint64_t cached_bytes = 0;  ///< currently staged (clean + dirty)
  std::uint64_t resident_bytes = 0;  ///< staging pages held in memory
};

class CachedBackend final : public Backend, public obs::EpochSink {
 public:
  CachedBackend(BackendPtr inner, CacheOptions options);
  ~CachedBackend() override;

  std::uint64_t size() const override;
  /// A batch is one staging transfer plus its bookkeeping in one hold
  /// of the lock, and one capacity check; a write-through (kAfterWrite)
  /// forward and a read miss's fetch reach the inner backend as one
  /// vectored call too.  A read_v is one hit only when every extent is
  /// staged.
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override;
  void flush() override;
  void close() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override;

  /// Flushes every dirty extent to the inner backend (vectored,
  /// lowest-offset extent last) and flushes the inner backend.  Throws
  /// the inner error on failure with the dirty set retained.  This is
  /// the explicit "job end" hook for kAfterJob mode and is what the
  /// epoch/close policies call internally.
  void drain();

  /// obs::EpochSink: kAfterEpoch mode drains on every epoch-end marker.
  void on_epoch_event(const obs::EpochEvent& event) override;

  CacheSnapshot cache_snapshot() const;
  const CacheOptions& options() const { return options_; }

 private:
  using Runs = ByteRanges::Runs;

  /// Moves the staging pages overlapping [begin, end) to the LRU front.
  void touch_pages_locked(std::uint64_t begin, std::uint64_t end);
  /// Frees staging page `page` and drops its LRU entry, unless it holds
  /// a staged byte.
  void forget_page_if_empty_locked(std::uint64_t page);
  /// Publishes the staged and dirty byte totals to the io.cache gauges
  /// when obs is enabled.
  void update_gauges_locked();

  /// Reads `gaps` from the inner backend into `buf` (zeros past the
  /// inner end of object).
  void fetch(const Runs& gaps, std::vector<std::byte>& buf);
  /// Stages the bytes of `gaps` fetched into `buf` that are still
  /// unstaged (a concurrent write may have staged newer ones).
  void stage_fetched_locked(const Runs& gaps, std::span<const std::byte> buf);
  /// Writes the dirty intervals inside [begin, end) to the inner backend
  /// (vectored, lowest interval last) and clears them from the dirty set
  /// on success, except bytes rewritten meanwhile.  Returns the bytes
  /// written.  Caller holds drain_mutex_ but NOT mutex_.
  std::uint64_t write_back(std::uint64_t begin, std::uint64_t end);
  /// Evicts LRU pages (writing dirty victims back first) until the
  /// staged footprint fits the capacity budget.
  void enforce_capacity();
  void drain_internal();

  BackendPtr inner_;
  CacheOptions options_;

  /// Serialises drains and eviction write-backs; held across the inner
  /// write_v/flush transfer, hence the low rank (every inner lock is
  /// acquired above it).
  mutable debug::RankedMutex<debug::LockRank::kStorageCache> drain_mutex_;

  /// Guards the interval/LRU bookkeeping below, and is held across
  /// every staging copy together with the bookkeeping that makes the
  /// bytes valid or found them valid, so an eviction cannot free a
  /// page between the two (kStorageWrapper over the staging's
  /// kStorageBase).  Never held across an inner transfer: the shared
  /// kStorageWrapper rank aborts (same-rank acquisition) if an inner
  /// wrapper lock is ever taken under it.
  mutable debug::RankedMutex<debug::LockRank::kStorageWrapper> mutex_;
  MemoryBackend staging_;
  ByteRanges valid_;   ///< staged byte ranges
  ByteRanges dirty_;   ///< staged ranges not yet on the inner backend
  /// Ranges written while a write-back is in flight: they stay dirty
  /// when it completes, since it may have carried the older bytes.
  ByteRanges rewritten_;
  bool writing_back_ = false;
  std::list<std::uint64_t> lru_;  ///< staging page ids, front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      lru_pos_;
  std::uint64_t logical_size_ = 0;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> hit_bytes_{0};
  std::atomic<std::uint64_t> miss_bytes_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> flushed_bytes_{0};
  std::atomic<std::uint64_t> flush_failures_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> writeback_bytes_{0};
  std::atomic<std::uint64_t> lost_bytes_{0};
};

}  // namespace apio::storage
