// CachedBackend: the write-back burst-buffer tier (bbThemis-style
// visibility modes) — hit/miss bookkeeping, LRU eviction with dirty
// write-back and staging-page release, the zero-copy drain's shape and
// its races with writers, page lending to a memory leaf, epoch-driven
// drains, decorator-order
// interplay with the QoS and resilience tiers, and the crash-consistency
// matrix
// {4 consistency modes} x {mid-flush fault, clean close, epoch
// boundary} with visibility asserted via File::open checksum
// validation over the inner (PFS) backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "h5/file.h"
#include "obs/metrics.h"
#include "obs/epoch_analyzer.h"
#include "sched/fair_scheduler.h"
#include "storage/backend_stack.h"
#include "storage/cached_backend.h"
#include "storage/decorator.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"

using namespace apio;
using namespace apio::storage;

namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 0x40) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return data;
}

std::shared_ptr<CachedBackend> as_cache(const BackendPtr& backend) {
  auto cache = std::dynamic_pointer_cast<CachedBackend>(backend);
  EXPECT_NE(cache, nullptr);
  return cache;
}

CacheOptions opts(CacheConsistency mode, std::uint64_t capacity = 64ull << 20) {
  CacheOptions o;
  o.consistency = mode;
  o.capacity_bytes = capacity;
  return o;
}

constexpr CacheConsistency kAllModes[] = {
    CacheConsistency::kAfterWrite, CacheConsistency::kAfterClose,
    CacheConsistency::kAfterEpoch, CacheConsistency::kAfterJob};

}  // namespace

// ---------------------------------------------------------------------------
// Mode plumbing and stack composition

TEST(CacheModeTest, ConsistencyNamesRoundTrip) {
  for (const auto mode : kAllModes) {
    CacheConsistency parsed{};
    ASSERT_TRUE(parse_cache_consistency(to_string(mode), parsed));
    EXPECT_EQ(parsed, mode);
  }
  CacheConsistency parsed{};
  EXPECT_FALSE(parse_cache_consistency("immediately", parsed));
}

TEST(CacheStackTest, CachedComposesOutermost) {
  auto scheduler = std::make_shared<sched::FairScheduler>();
  ThrottleParams throttle;
  throttle.bandwidth = 1e12;
  auto backend = BackendStack::memory()
                     .throttled(throttle)
                     .resilient({})
                     .qos(scheduler)
                     .cached(opts(CacheConsistency::kAfterClose))
                     .build();
  EXPECT_EQ(backend->name(),
            "cached[after-close](qos(resilient(throttled(memory))))");
}

// ---------------------------------------------------------------------------
// Write-back basics

TEST(CacheTest, WriteBackAbsorbsWritesOffTheInnerTier) {
  auto inner = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(inner).cached(opts(CacheConsistency::kAfterClose))
          .build();
  auto cache = as_cache(backend);

  const auto data = pattern(8 * 1024);
  backend->write(0, data);
  EXPECT_EQ(inner->stats().bytes_written, 0u)
      << "write-back: nothing reaches the PFS before the drain trigger";

  std::vector<std::byte> back(data.size());
  backend->read(0, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(inner->stats().bytes_read, 0u) << "read served from staging";

  const auto snap = cache->cache_snapshot();
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.dirty_bytes, data.size());

  backend->close();
  EXPECT_EQ(inner->stats().bytes_written, data.size());
  EXPECT_EQ(cache->cache_snapshot().dirty_bytes, 0u);
  std::vector<std::byte> inner_back(data.size());
  inner->read(0, inner_back);
  EXPECT_EQ(inner_back, data);
}

TEST(CacheTest, DrainCoalescesAdjacentExtentsThroughWriteV) {
  auto inner = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(inner).cached(opts(CacheConsistency::kAfterClose))
          .build();

  // 16 adjacent 256-byte writes plus one distant extent: the drain
  // must coalesce the run into one extent and leave as vectored
  // batches, not 17 scalar writes.
  const auto data = pattern(256);
  for (int i = 0; i < 16; ++i) {
    backend->write(static_cast<std::uint64_t>(i) * 256, data);
  }
  backend->write(1 << 20, data);
  backend->close();

  // Header-last drain order: one write_v for the non-header extent,
  // one for the lowest extent — two inner ops total.
  EXPECT_EQ(inner->stats().write_ops, 2u);
  EXPECT_EQ(inner->stats().bytes_written, 17u * 256u);
}

namespace {

/// Records the extent list of every write_v that reaches it.
class RecordingBackend final : public Decorator {
 public:
  explicit RecordingBackend(BackendPtr inner)
      : Decorator(std::move(inner), "recording") {}

  std::uint64_t write_v(std::span<const WriteExtent> extents) override {
    auto& call = calls.emplace_back();
    for (const auto& e : extents) call.emplace_back(e.offset, e.data.size());
    return Decorator::write_v(extents);
  }

  /// One {offset, bytes} list per write_v call, in call order.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> calls;

 private:
  void around(obs::IoOp, std::uint64_t, std::uint64_t, Transfer transfer) override {
    transfer();
  }
};

/// Parks the first write that reaches it until release(); later writes
/// pass straight through.
class ParkingBackend final : public Decorator {
 public:
  explicit ParkingBackend(BackendPtr inner)
      : Decorator(std::move(inner), "parking") {}

  void wait_until_parked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  void around(obs::IoOp op, std::uint64_t, std::uint64_t, Transfer transfer) override {
    if (op == obs::IoOp::kWrite) {
      std::unique_lock<std::mutex> lock(mutex_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    transfer();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

}  // namespace

TEST(CacheTest, WriteRacingADrainStaysDirtyForTheNextDrain) {
  // The drain's spans pin the staging page: a write that arrives while
  // the drain is in the inner tier lands in a copy of the page, so the
  // drain still carries the bytes it gathered, and the new bytes stay
  // dirty instead of being marked clean by the finishing drain.
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  auto inner = std::make_shared<MemoryBackend>();
  auto parking = std::make_shared<ParkingBackend>(inner);
  auto backend =
      BackendStack::wrap(parking).cached(opts(CacheConsistency::kAfterClose))
          .build();
  auto cache = as_cache(backend);

  const auto v1 = pattern(kPage, 0x31);
  const auto v2 = pattern(kPage, 0x52);
  backend->write(0, v1);
  std::thread drainer([&] { cache->drain(); });
  parking->wait_until_parked();
  backend->write(0, v2);
  parking->release();
  drainer.join();

  std::vector<std::byte> got(kPage);
  inner->read(0, got);
  EXPECT_EQ(got, v1) << "the drain carries the bytes it gathered";
  EXPECT_EQ(cache->cache_snapshot().dirty_bytes, kPage)
      << "the racing write stays dirty";
  backend->read(0, got);
  EXPECT_EQ(got, v2);

  cache->drain();
  inner->read(0, got);
  EXPECT_EQ(got, v2) << "the next drain publishes the racing write";
}

TEST(CacheTest, DrainSendsStagingPagesAndTheLowestIntervalWholeLast) {
  // The drain hands staging pages straight to the inner write_v: the
  // upper interval goes first, then the lowest interval — here spanning
  // four pages — whole, in one last call.  Splitting at the lowest
  // interval's first page instead would send only that page last.
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  auto inner = std::make_shared<MemoryBackend>();
  auto recorder = std::make_shared<RecordingBackend>(inner);
  auto backend =
      BackendStack::wrap(recorder).cached(opts(CacheConsistency::kAfterClose))
          .build();

  const std::uint64_t low_at = 100;
  const auto low = pattern(3 * kPage, 0x11);
  const std::uint64_t high_at = 8 * kPage + 7;
  const auto high = pattern(1000, 0x22);
  backend->write(low_at, low);
  backend->write(high_at, high);
  backend->close();

  ASSERT_EQ(recorder->calls.size(), 2u);
  const auto covers = [](const std::vector<std::pair<std::uint64_t, std::size_t>>& call,
                         std::uint64_t at, std::size_t bytes) {
    std::uint64_t next = at;
    for (const auto& [offset, size] : call) {
      if (offset != next) return false;
      next += size;
    }
    return next == at + bytes;
  };
  EXPECT_TRUE(covers(recorder->calls[0], high_at, high.size()));
  EXPECT_TRUE(covers(recorder->calls[1], low_at, low.size()))
      << "the last call must carry exactly the lowest interval";
  EXPECT_EQ(recorder->calls[1].size(), 4u) << "one extent per staging page";

  std::vector<std::byte> back(low.size());
  inner->read(low_at, back);
  EXPECT_EQ(back, low);
  back.resize(high.size());
  inner->read(high_at, back);
  EXPECT_EQ(back, high);
}

TEST(CacheTest, AfterEpochFootprintStaysWithinCapacity) {
  // Eviction frees the staging pages it empties, so a cache fed four
  // times its capacity never holds more than the capacity plus a page.
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  constexpr std::uint64_t kCapacity = 8 * kPage;
  auto inner = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(inner)
          .cached(opts(CacheConsistency::kAfterEpoch, kCapacity))
          .build();
  auto cache = as_cache(backend);

  constexpr int kBlocks = 4 * static_cast<int>(kCapacity / kPage);
  for (int i = 0; i < kBlocks; ++i) {
    backend->write(static_cast<std::uint64_t>(i) * kPage,
                   pattern(kPage, static_cast<std::uint8_t>(i)));
    const auto snap = cache->cache_snapshot();
    ASSERT_LE(snap.resident_bytes, kCapacity + kPage) << "after block " << i;
    ASSERT_LE(snap.cached_bytes, kCapacity) << "after block " << i;
  }
  EXPECT_GT(cache->cache_snapshot().evictions, 0u);

  backend->close();
  for (int i = 0; i < kBlocks; ++i) {
    std::vector<std::byte> back(kPage);
    inner->read(static_cast<std::uint64_t>(i) * kPage, back);
    ASSERT_EQ(back, pattern(kPage, static_cast<std::uint8_t>(i))) << "block " << i;
  }
}

TEST(CacheTest, EvictionRacingReadBackNeverSeesZerosOrStaleBytes) {
  // One thread rewrites and reads back its stamped blocks through a
  // 4-block cache while another streams reads of other blocks through
  // it, forcing evictions: write-backs of the writer's dirty blocks,
  // page releases, and drains racing rewrites of the pages they carry.
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  constexpr std::uint64_t kOwned = 6;      // the writer's blocks
  constexpr std::uint64_t kForeign = 8;    // blocks the evictor reads
  constexpr int kRounds = 12;
  const auto stamp = [](int round, std::uint64_t block) {
    return pattern(kPage, static_cast<std::uint8_t>(round * 16 + block + 1));
  };

  auto inner = std::make_shared<MemoryBackend>();
  const std::uint64_t foreign_at = kOwned * kPage;
  for (std::uint64_t j = 0; j < kForeign; ++j) {
    inner->write(foreign_at + j * kPage, stamp(-1, j));
  }
  auto backend =
      BackendStack::wrap(inner)
          .cached(opts(CacheConsistency::kAfterClose, 4 * kPage))
          .build();

  std::atomic<bool> done{false};
  std::atomic<int> bad_writer_reads{0};
  std::atomic<int> bad_foreign_reads{0};
  std::thread evictor([&] {
    std::vector<std::vector<std::byte>> want;
    for (std::uint64_t j = 0; j < kForeign; ++j) want.push_back(stamp(-1, j));
    std::vector<std::byte> got(kPage);
    while (!done.load()) {
      for (std::uint64_t j = 0; j < kForeign; ++j) {
        backend->read(foreign_at + j * kPage, got);
        if (got != want[j]) bad_foreign_reads.fetch_add(1);
      }
    }
  });

  // Each write is followed by a read-back of the block written three
  // writes earlier, which by then has often been evicted.
  std::vector<int> latest(kOwned, -1);
  std::vector<std::byte> got(kPage);
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kOwned; ++i) {
      backend->write(i * kPage, stamp(round, i));
      latest[i] = round;
      const std::uint64_t back = (i + kOwned - 3) % kOwned;
      if (latest[back] < 0) continue;
      backend->read(back * kPage, got);
      if (got != stamp(latest[back], back)) bad_writer_reads.fetch_add(1);
    }
  }
  done.store(true);
  evictor.join();
  EXPECT_EQ(bad_writer_reads.load(), 0);
  EXPECT_EQ(bad_foreign_reads.load(), 0);
  EXPECT_GT(as_cache(backend)->cache_snapshot().evictions, 0u);

  backend->close();
  for (std::uint64_t i = 0; i < kOwned; ++i) {
    inner->read(i * kPage, got);
    EXPECT_EQ(got, stamp(kRounds - 1, i)) << "block " << i;
  }
}

TEST(CacheTest, ReadThroughFetchesOnceThenHits) {
  auto inner = std::make_shared<MemoryBackend>();
  const auto data = pattern(4096);
  inner->write(0, data);

  auto backend =
      BackendStack::wrap(inner).cached(opts(CacheConsistency::kAfterClose))
          .build();
  auto cache = as_cache(backend);

  std::vector<std::byte> back(data.size());
  backend->read(0, back);
  EXPECT_EQ(back, data);
  backend->read(0, back);
  EXPECT_EQ(back, data);

  const auto snap = cache->cache_snapshot();
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.miss_bytes, data.size());
  EXPECT_EQ(inner->stats().bytes_read, data.size())
      << "the second read must not touch the PFS";
}

TEST(CacheTest, ObservabilityOffLeavesRegistryUntouched) {
  // With obs off the registry's cache gauges stay at zero: the counts
  // live only in cache_snapshot().
  obs::set_enabled(false);
  auto& registry = obs::Registry::instance();
  registry.reset();
  auto inner = std::make_shared<MemoryBackend>();
  const auto data = pattern(4096);
  inner->write(0, data);
  auto backend =
      BackendStack::wrap(inner).cached(opts(CacheConsistency::kAfterJob))
          .build();
  auto cache = as_cache(backend);

  backend->write(8192, pattern(1024, 0x11));  // staged
  backend->write(9216, pattern(1024, 0x22));  // staged, adjacent
  std::vector<std::byte> back(data.size());
  backend->read(0, back);  // miss: fetched from the inner tier
  backend->read(0, back);  // hit
  EXPECT_EQ(back, data);
  cache->drain();

  const auto snap = cache->cache_snapshot();
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.flushes, 1u);
  EXPECT_EQ(snap.flushed_bytes, 2048u);
  for (const char* name : {"io.cache.dirty_bytes", "io.cache.cached_bytes"}) {
    auto& gauge = registry.gauge(name);
    EXPECT_EQ(gauge.value(), 0) << name;
    EXPECT_EQ(gauge.high_watermark(), 0) << name;
  }
}

TEST(CacheTest, ReadPastLogicalEndThrows) {
  auto backend = BackendStack::memory()
                     .cached(opts(CacheConsistency::kAfterClose))
                     .build();
  backend->write(0, pattern(64));
  std::vector<std::byte> out(65);
  EXPECT_THROW(backend->read(0, out), IoError);
}

TEST(CacheTest, LruEvictionWritesDirtyVictimsBackFirst) {
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  auto inner = std::make_shared<MemoryBackend>();
  // Two staging pages of capacity; three dirty pages force eviction.
  auto backend = BackendStack::wrap(inner)
                     .cached(opts(CacheConsistency::kAfterClose, 2 * kPage))
                     .build();
  auto cache = as_cache(backend);

  const auto p0 = pattern(kPage, 0x10);
  const auto p1 = pattern(kPage, 0x20);
  const auto p2 = pattern(kPage, 0x30);
  backend->write(0, p0);
  backend->write(kPage, p1);
  backend->write(2 * kPage, p2);  // evicts the LRU page (page 0)

  const auto snap = cache->cache_snapshot();
  EXPECT_GE(snap.evictions, 1u);
  EXPECT_GE(snap.writeback_bytes, kPage) << "dirty victim written back";
  EXPECT_LE(snap.cached_bytes, 2 * kPage);

  // The evicted range is still correct: refetched from the PFS tier.
  std::vector<std::byte> back(kPage);
  backend->read(0, back);
  EXPECT_EQ(back, p0);

  // Once drained every page is clean.  Refetching page 1 stages a third
  // page, and evicting the clean LRU victim frees its staging page
  // without writing anything back.
  cache->drain();
  const auto clean = cache->cache_snapshot();
  ASSERT_EQ(clean.resident_bytes, 2 * kPage);
  backend->read(kPage, back);
  EXPECT_EQ(back, p1);
  const auto evicted = cache->cache_snapshot();
  EXPECT_EQ(evicted.evictions, clean.evictions + 1);
  EXPECT_EQ(evicted.writeback_bytes, clean.writeback_bytes);
  // The refetch allocated one page, so the eviction freed one.
  EXPECT_EQ(evicted.resident_bytes, clean.resident_bytes)
      << "the clean victim's staging page is freed";

  backend->close();
  std::vector<std::byte> all(3 * kPage);
  inner->read(0, all);
  std::vector<std::byte> want;
  want.insert(want.end(), p0.begin(), p0.end());
  want.insert(want.end(), p1.begin(), p1.end());
  want.insert(want.end(), p2.begin(), p2.end());
  EXPECT_EQ(all, want);
}

// ---------------------------------------------------------------------------
// Epoch-aligned visibility

TEST(CacheTest, AfterEpochDrainsOnEpochEndMarker) {
  auto inner = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(inner).cached(opts(CacheConsistency::kAfterEpoch))
          .build();

  const auto data = pattern(2048);
  {
    obs::EpochScope epoch(0);
    backend->write(0, data);
    EXPECT_EQ(inner->stats().bytes_written, 0u);
  }  // kEnd marker fires here
  EXPECT_EQ(inner->stats().bytes_written, data.size())
      << "epoch end must drain the dirty set";
  std::vector<std::byte> back(data.size());
  inner->read(0, back);
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// Zero-copy drain into a memory leaf: the drain lends its whole staging
// pages, so staging and leaf share them until either side writes.

namespace {

/// Hands the inner backend a private copy of every write_v batch, so a
/// memory leaf under it copies every drained byte: the copy path.
class CopyingBackend final : public Decorator {
 public:
  explicit CopyingBackend(BackendPtr inner)
      : Decorator(std::move(inner), "copying") {}

  std::uint64_t write_v(std::span<const WriteExtent> extents) override {
    std::vector<std::vector<std::byte>> copies;
    std::vector<WriteExtent> batch;
    for (const auto& e : extents) {
      copies.emplace_back(e.data.begin(), e.data.end());
      batch.push_back({e.offset, copies.back()});
    }
    return Decorator::write_v(batch);
  }

 private:
  void around(obs::IoOp, std::uint64_t, std::uint64_t, Transfer transfer) override {
    transfer();
  }
};

/// Three epochs of a container whose datasets span whole pages, written
/// through an after-epoch cache over `under`; `leaf` is the memory
/// backend at the bottom.  Returns the leaf's bytes once the cache is
/// gone.
std::vector<std::byte> drained_container(const std::shared_ptr<MemoryBackend>& leaf,
                                         const BackendPtr& under) {
  constexpr std::uint64_t kElems = MemoryBackend::kPageBytes;
  {
    auto file = h5::File::create(
        BackendStack::wrap(under)
            .cached(opts(CacheConsistency::kAfterEpoch))
            .build());
    for (int j = 0; j < 3; ++j) {
      file->root().create_dataset("d" + std::to_string(j), h5::Datatype::kUInt8,
                                  {kElems});
    }
    for (int step = 0; step < 3; ++step) {
      obs::EpochScope epoch(step);
      for (int j = 0; j < 3; ++j) {
        std::vector<std::uint8_t> values(kElems);
        for (std::uint64_t k = 0; k < kElems; ++k) {
          values[k] = static_cast<std::uint8_t>(k * 13 + static_cast<std::uint64_t>(step * 3 + j));
        }
        // The middle step rewrites only the dataset's second half.
        const std::uint64_t from = step == 1 ? kElems / 2 : 0;
        file->root().open_dataset("d" + std::to_string(j)).write<std::uint8_t>(
            h5::Selection::offsets({from}, {kElems - from}),
            std::span(values).subspan(from));
      }
      file->flush();
    }
    file->close();
  }
  std::vector<std::byte> bytes(leaf->size());
  leaf->read(0, bytes);
  return bytes;
}

}  // namespace

TEST(CacheTest, StagedRewriteOfDrainedPagesWaitsForTheNextEpochEnd) {
  // After a drain the leaf shares the staging pages: rewriting them in
  // staging (a whole page and part of one) must not show on the leaf
  // until the next epoch end publishes it.
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  auto leaf = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(leaf)
          .cached(opts(CacheConsistency::kAfterEpoch))
          .build();

  const auto v1 = pattern(2 * kPage, 0x31);
  {
    obs::EpochScope epoch(0);
    backend->write(0, v1);
  }
  std::vector<std::byte> got(2 * kPage);
  leaf->read(0, got);
  ASSERT_EQ(got, v1);

  auto v2 = v1;
  const auto page0 = pattern(kPage, 0x52);
  const auto bit = pattern(100, 0x73);
  std::copy(page0.begin(), page0.end(), v2.begin());
  std::copy(bit.begin(), bit.end(), v2.begin() + static_cast<std::ptrdiff_t>(kPage + 10));
  {
    obs::EpochScope epoch(1);
    backend->write(0, page0);
    backend->write(kPage + 10, bit);
    leaf->read(0, got);
    EXPECT_EQ(got, v1) << "a staged rewrite reached the leaf before the epoch end";
    backend->read(0, got);
    EXPECT_EQ(got, v2);
  }
  leaf->read(0, got);
  EXPECT_EQ(got, v2) << "the epoch end publishes the rewrite";
}

TEST(CacheTest, LentDrainLeavesTheSameContainerAsTheCopyPath) {
  auto lent_leaf = std::make_shared<MemoryBackend>();
  const auto lent = drained_container(lent_leaf, lent_leaf);
  auto copied_leaf = std::make_shared<MemoryBackend>();
  const auto copied = drained_container(
      copied_leaf, std::make_shared<CopyingBackend>(copied_leaf));
  ASSERT_GT(lent.size(), 3 * MemoryBackend::kPageBytes);
  EXPECT_EQ(lent, copied);

  auto file = h5::File::open(lent_leaf);
  const auto values =
      file->root().open_dataset("d2").read_vector<std::uint8_t>(h5::Selection::all());
  ASSERT_EQ(values.size(), MemoryBackend::kPageBytes);
  EXPECT_EQ(values.front(), static_cast<std::uint8_t>(2 * 3 + 2));
  EXPECT_EQ(values.back(),
            static_cast<std::uint8_t>((values.size() - 1) * 13 + 2 * 3 + 2));
}

TEST(CacheTest, LentPagesRaceEvictionRewritesAndLeafWrites) {
  // Three threads over lent pages.  The writer stages stamped pages
  // through a 3-page cache and drains them to the memory leaf, so
  // eviction and rewrites hit pages the leaf shares; the reader reads
  // them through the cache; the leaf thread rewrites each leaf page's
  // tail with the bytes it already holds and reads whole leaf pages.
  // Every page read must be one whole stamped page, and ThreadSanitizer
  // sees any in-place write to a shared page.
  constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;
  constexpr std::uint64_t kPages = 5;
  constexpr std::uint64_t kTail = 4096;
  constexpr int kRounds = 16;
  const auto stamped = [](std::uint64_t round, std::uint64_t page) {
    auto bytes = pattern(kPage, static_cast<std::uint8_t>(round * 8 + page));
    std::memcpy(bytes.data(), &round, sizeof round);
    std::fill(bytes.end() - kTail, bytes.end(), std::byte{0xC3});
    return bytes;
  };
  const auto whole = [&](const std::vector<std::byte>& got, std::uint64_t page) {
    std::uint64_t round = 0;
    std::memcpy(&round, got.data(), sizeof round);
    return round < kRounds && got == stamped(round, page);
  };

  auto leaf = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(leaf)
          .cached(opts(CacheConsistency::kAfterClose, 3 * kPage))
          .build();
  auto cache = as_cache(backend);
  for (std::uint64_t i = 0; i < kPages; ++i) backend->write(i * kPage, stamped(0, i));
  cache->drain();

  std::atomic<bool> done{false};
  std::atomic<int> torn_cache_reads{0};
  std::atomic<int> torn_leaf_reads{0};
  std::thread reader([&] {
    std::vector<std::byte> got(kPage);
    while (!done.load()) {
      for (std::uint64_t i = 0; i < kPages; ++i) {
        backend->read(i * kPage, got);
        if (!whole(got, i)) torn_cache_reads.fetch_add(1);
      }
    }
  });
  std::thread leaf_side([&] {
    const std::vector<std::byte> tail(kTail, std::byte{0xC3});
    std::vector<std::byte> got(kPage);
    while (!done.load()) {
      for (std::uint64_t i = 0; i < kPages; ++i) {
        leaf->write((i + 1) * kPage - kTail, tail);
        leaf->read(i * kPage, got);
        if (!whole(got, i)) torn_leaf_reads.fetch_add(1);
      }
    }
  });
  for (std::uint64_t round = 1; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kPages; ++i) backend->write(i * kPage, stamped(round, i));
    cache->drain();
  }
  done.store(true);
  reader.join();
  leaf_side.join();
  EXPECT_EQ(torn_cache_reads.load(), 0);
  EXPECT_EQ(torn_leaf_reads.load(), 0);
  EXPECT_GT(cache->cache_snapshot().evictions, 0u);

  std::vector<std::byte> got(kPage);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    backend->read(i * kPage, got);
    EXPECT_EQ(got, stamped(kRounds - 1, i)) << "page " << i << " through the cache";
    leaf->read(i * kPage, got);
    EXPECT_EQ(got, stamped(kRounds - 1, i)) << "page " << i << " on the leaf";
  }
}

// ---------------------------------------------------------------------------
// Interplay with the QoS tier (BackendStack ordering audit)

TEST(CacheTest, StagedWritesBypassAdmissionAndDrainsAreAdmitted) {
  auto scheduler = std::make_shared<sched::FairScheduler>();
  auto backend = BackendStack::memory()
                     .qos(scheduler)
                     .cached(opts(CacheConsistency::kAfterClose))
                     .build();

  backend->write(0, pattern(4096));
  EXPECT_EQ(scheduler->stats().dispatched_ops, 0u)
      << "staged writes must not spend PFS admission slots";

  backend->close();
  const auto stats = scheduler->stats();
  // The drain arrives as ordinary admitted traffic: one vectored write
  // batch plus the priority-lane flush — and close() returns with no
  // slot still held (queue fully drained).
  EXPECT_GE(stats.dispatched_ops, 2u);
  EXPECT_GE(stats.dispatched_bytes, 4096u);
  EXPECT_EQ(stats.submitted_ops, stats.dispatched_ops)
      << "close() must return with the admission queue fully drained";
}

// ---------------------------------------------------------------------------
// Interplay with the resilience tier: a breaker-open PFS during the
// drain surfaces TransientIoError and retains the dirty set.

TEST(CacheTest, BreakerOpenDuringDrainRetainsDirtySet) {
  FaultPlan plan;
  plan.fail_every_n_writes = 1;  // every PFS write fails...
  plan.transient = true;         // ...transiently
  auto faulty =
      std::make_shared<FaultyBackend>(std::make_shared<MemoryBackend>(), plan);

  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 2;
  resilience.breaker.failure_threshold = 1;
  resilience.breaker.open_seconds = 10.0;
  auto backend = BackendStack::wrap(faulty)
                     .resilient(resilience, &clock, &clock)
                     .cached(opts(CacheConsistency::kAfterClose))
                     .build();
  auto cache = as_cache(backend);

  const auto data = pattern(1024);
  backend->write(0, data);

  EXPECT_THROW(backend->close(), TransientIoError)
      << "exhausted retries surface the transient classification";
  auto snap = cache->cache_snapshot();
  EXPECT_EQ(snap.dirty_bytes, data.size()) << "dirty set retained";
  EXPECT_EQ(snap.flush_failures, 1u);

  // The leaf heals but the breaker is still open: the drain must keep
  // surfacing TransientIoError (BreakerOpenError) without dropping the
  // dirty extents.
  faulty->heal();
  EXPECT_THROW(cache->drain(), BreakerOpenError);
  EXPECT_EQ(cache->cache_snapshot().dirty_bytes, data.size());

  // Past the cooldown the half-open probe succeeds and the same
  // extents finally land.
  clock.advance(11.0);
  cache->drain();
  EXPECT_EQ(cache->cache_snapshot().dirty_bytes, 0u);
  std::vector<std::byte> back(data.size());
  faulty->read(0, back);
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// Read-after-shrink through the cache (PR 5 set_extent semantics)

TEST(CacheTest, TruncateInvalidatesStagedBytesBeyondNewSize) {
  auto inner = std::make_shared<MemoryBackend>();
  auto backend =
      BackendStack::wrap(inner).cached(opts(CacheConsistency::kAfterClose))
          .build();

  const auto data = pattern(4096);
  backend->write(0, data);
  std::vector<std::byte> warm(4096);
  backend->read(0, warm);  // staged and hot

  backend->truncate(2048);           // shrink
  backend->truncate(4096);           // regrow: zero-fill, not stale bytes
  std::vector<std::byte> back(4096);
  backend->read(0, back);

  std::vector<std::byte> want(data.begin(), data.begin() + 2048);
  want.resize(4096, std::byte{0});
  EXPECT_EQ(back, want);
}

TEST(CacheTest, SetExtentShrinkDropsOutsideChunksOnRegrowThroughCache) {
  // Mirror of the PR 5 dataset-path regression, run through every
  // cache mode: regrow over dead space must read zero fill, never
  // stale staged bytes.
  for (const auto mode : kAllModes) {
    auto file = h5::File::create(
        BackendStack::memory().cached(opts(mode)).build());
    auto ds = file->root().create_dataset(
        "d", h5::Datatype::kInt32, {8}, h5::DatasetCreateProps::chunked({4}));
    const std::vector<std::int32_t> values{1, 2, 3, 4, 5, 6, 7, 8};
    ds.write<std::int32_t>(h5::Selection::all(), values);

    ds.set_extent({4});
    ds.set_extent({8});
    EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()),
              (std::vector<std::int32_t>{1, 2, 3, 4, 0, 0, 0, 0}))
        << "mode " << to_string(mode);
  }
}

TEST(CacheTest, SetExtentShrinkKeepsPartiallyCoveredChunksThroughCache) {
  for (const auto mode : kAllModes) {
    auto file = h5::File::create(
        BackendStack::memory().cached(opts(mode)).build());
    auto ds = file->root().create_dataset(
        "d", h5::Datatype::kInt32, {8}, h5::DatasetCreateProps::chunked({4}));
    const std::vector<std::int32_t> values{1, 2, 3, 4, 5, 6, 7, 8};
    ds.write<std::int32_t>(h5::Selection::all(), values);

    ds.set_extent({6});
    EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()),
              (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6}))
        << "mode " << to_string(mode);
    ds.set_extent({8});
    EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), values)
        << "mode " << to_string(mode);
  }
}

// ---------------------------------------------------------------------------
// Crash-consistency matrix: {4 modes} x {clean close, epoch boundary,
// mid-flush fault}.  The producer writes two epochs through the cache;
// visibility is asserted by reopening the INNER backend with
// File::open, whose superblock/metadata checksum validation fails
// loudly on a torn container.

namespace {

struct MatrixRig {
  std::shared_ptr<MemoryBackend> pfs;      // the "parallel file system"
  std::shared_ptr<FaultyBackend> faulty;   // between cache and PFS
  BackendPtr backend;                      // the cache (outermost)
  std::shared_ptr<CachedBackend> cache;
};

MatrixRig make_rig(CacheConsistency mode) {
  MatrixRig rig;
  rig.pfs = std::make_shared<MemoryBackend>();
  rig.faulty = std::make_shared<FaultyBackend>(rig.pfs, FaultPlan{});
  rig.backend = BackendStack::wrap(rig.faulty).cached(opts(mode)).build();
  rig.cache = as_cache(rig.backend);
  return rig;
}

/// Writes epoch `step`'s half of the dataset and flushes the container
/// metadata inside the epoch, so an epoch-end drain publishes a
/// self-consistent container.
void produce_epoch(const h5::FilePtr& file, int step) {
  obs::EpochScope epoch(step);
  auto ds = file->root().open_dataset("d");
  const std::vector<std::uint8_t> half(
      128, step == 0 ? std::uint8_t{0xA1} : std::uint8_t{0xB2});
  ds.write<std::uint8_t>(
      h5::Selection::offsets({static_cast<std::uint64_t>(step) * 128}, {128}),
      half);
  file->flush();
}

std::vector<std::uint8_t> full_contents() {
  std::vector<std::uint8_t> want(128, 0xA1);
  want.resize(256, 0xB2);
  return want;
}

/// Opens the PFS tier directly (checksum-validated) and returns the
/// dataset bytes; empty optional-style via bool when unreadable.
bool pfs_visible(const std::shared_ptr<MemoryBackend>& pfs,
                 std::vector<std::uint8_t>& out) {
  try {
    auto reopened = h5::File::open(pfs);
    out = reopened->root().open_dataset("d").read_vector<std::uint8_t>(
        h5::Selection::all());
    return true;
  } catch (const Error&) {
    // FormatError (bad magic / checksum) on a torn or absent container,
    // IoError on unreadable extents: both mean "not visible yet".
    return false;
  }
}

FaultPlan data_region_fault() {
  FaultPlan plan;
  // Any write beyond the 64-byte superblock faults (the drain's
  // data/metadata extents — and any coalesced extent that starts at the
  // header and runs past it), transiently.  Flushes carry no offset and
  // never match.
  plan.fault_offset_begin = 64;
  plan.fault_offset_end = ~std::uint64_t{0};
  plan.transient = true;
  return plan;
}

}  // namespace

TEST(CacheCrashMatrixTest, CleanCloseAndEpochBoundaryVisibilityPerMode) {
  for (const auto mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    auto rig = make_rig(mode);
    auto file = h5::File::create(rig.backend);
    file->root().create_dataset("d", h5::Datatype::kUInt8, {256});

    produce_epoch(file, 0);

    // Epoch-boundary cell: what a concurrent consumer (BD-CATS) sees
    // on the PFS after the producer's first epoch closed.
    std::vector<std::uint8_t> mid;
    const bool visible_mid_run = pfs_visible(rig.pfs, mid);
    const bool expect_mid = mode == CacheConsistency::kAfterWrite ||
                            mode == CacheConsistency::kAfterEpoch;
    EXPECT_EQ(visible_mid_run, expect_mid);
    if (visible_mid_run) {
      std::vector<std::uint8_t> epoch0(256, 0);
      std::fill(epoch0.begin(), epoch0.begin() + 128, 0xA1);
      EXPECT_EQ(mid, epoch0) << "epoch 0 published, epoch 1 not yet written";
    }

    produce_epoch(file, 1);
    file->close();

    // Clean-close cell: everything but kAfterJob is on the PFS now.
    std::vector<std::uint8_t> post;
    const bool visible_post_close = pfs_visible(rig.pfs, post);
    EXPECT_EQ(visible_post_close, mode != CacheConsistency::kAfterJob);
    if (visible_post_close) {
      EXPECT_EQ(post, full_contents());
    }

    if (mode == CacheConsistency::kAfterJob) {
      EXPECT_GT(rig.cache->cache_snapshot().dirty_bytes, 0u);
      rig.cache->drain();  // "job end"
      std::vector<std::uint8_t> job_end;
      ASSERT_TRUE(pfs_visible(rig.pfs, job_end));
      EXPECT_EQ(job_end, full_contents());
    }
  }
}

TEST(CacheCrashMatrixTest, MidFlushFaultRetainsDirtySetPerMode) {
  for (const auto mode : kAllModes) {
    SCOPED_TRACE(to_string(mode));
    auto rig = make_rig(mode);
    auto file = h5::File::create(rig.backend);
    file->root().create_dataset("d", h5::Datatype::kUInt8, {256});
    produce_epoch(file, 0);

    switch (mode) {
      case CacheConsistency::kAfterWrite: {
        // The faulted write-through throws at write time, but the
        // bytes are staged and dirty: after healing, close() drains
        // the retained extent — write-through degrades to write-back
        // under a PFS fault instead of losing the update.
        rig.faulty->set_plan(data_region_fault());
        auto ds = file->root().open_dataset("d");
        const std::vector<std::uint8_t> half(128, 0xB2);
        EXPECT_THROW(
            ds.write<std::uint8_t>(h5::Selection::offsets({128}, {128}), half),
            TransientIoError);
        EXPECT_GT(rig.cache->cache_snapshot().dirty_bytes, 0u);
        rig.faulty->heal();
        file->close();
        break;
      }
      case CacheConsistency::kAfterClose: {
        produce_epoch(file, 1);
        rig.faulty->set_plan(data_region_fault());
        EXPECT_THROW(file->close(), TransientIoError);
        EXPECT_GT(rig.cache->cache_snapshot().dirty_bytes, 0u);
        EXPECT_GE(rig.cache->cache_snapshot().flush_failures, 1u);
        rig.faulty->heal();
        file->close();  // close() retries: drains the retained set
        break;
      }
      case CacheConsistency::kAfterEpoch: {
        // The faulted epoch-end drain fires inside the EpochScope
        // destructor: the error is swallowed (counted), the dirty set
        // retained, and the next drain publishes everything.
        rig.faulty->set_plan(data_region_fault());
        produce_epoch(file, 1);
        EXPECT_GE(rig.cache->cache_snapshot().flush_failures, 1u);
        EXPECT_GT(rig.cache->cache_snapshot().dirty_bytes, 0u);
        rig.faulty->heal();
        file->close();
        break;
      }
      case CacheConsistency::kAfterJob: {
        produce_epoch(file, 1);
        file->close();  // no drain in this mode
        rig.faulty->set_plan(data_region_fault());
        EXPECT_THROW(rig.cache->drain(), TransientIoError);
        EXPECT_GT(rig.cache->cache_snapshot().dirty_bytes, 0u);
        rig.faulty->heal();
        rig.cache->drain();
        break;
      }
    }

    std::vector<std::uint8_t> post;
    ASSERT_TRUE(pfs_visible(rig.pfs, post))
        << "after heal + redrain the container must validate";
    EXPECT_EQ(post, full_contents());
    EXPECT_EQ(rig.cache->cache_snapshot().dirty_bytes, 0u);
  }
}
