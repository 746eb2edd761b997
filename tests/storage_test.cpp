// Unit tests for storage backends and the PFS bandwidth models.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "common/error.h"
#include "common/units.h"
#include "sched/fair_scheduler.h"
#include "storage/backend_stack.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/pfs_model.h"
#include "storage/posix_backend.h"
#include "storage/throttled_backend.h"

namespace apio::storage {
namespace {

std::vector<std::byte> make_bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(std::byte{static_cast<unsigned char>(v)});
  return out;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Backend behaviours every layer must keep: the leaves, each decorator
// over a memory leaf, the cache in each visibility mode and the full
// builder stack, exercised via a parameterized suite.

enum class BackendKind {
  kMemory,
  kPosix,
  kThrottled,
  kResilient,
  kQos,
  kCachedAfterWrite,
  kCachedAfterClose,
  kCachedAfterEpoch,
  kCachedAfterJob,
  kFaultyHealed,
  kFullStack,
};

const char* kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemory: return "Memory";
    case BackendKind::kPosix: return "Posix";
    case BackendKind::kThrottled: return "Throttled";
    case BackendKind::kResilient: return "Resilient";
    case BackendKind::kQos: return "Qos";
    case BackendKind::kCachedAfterWrite: return "CachedAfterWrite";
    case BackendKind::kCachedAfterClose: return "CachedAfterClose";
    case BackendKind::kCachedAfterEpoch: return "CachedAfterEpoch";
    case BackendKind::kCachedAfterJob: return "CachedAfterJob";
    case BackendKind::kFaultyHealed: return "FaultyHealed";
    case BackendKind::kFullStack: return "FullStack";
  }
  return "?";
}

ThrottleParams free_throttle() {
  ThrottleParams params;
  params.bandwidth = 1e12;
  params.time_scale = 0.0;  // model time only, no wall sleeping
  return params;
}

CacheOptions cache_mode(CacheConsistency mode) {
  CacheOptions options;
  options.consistency = mode;
  return options;
}

class BackendContractTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  BackendPtr make_backend() {
    auto memory = BackendStack::memory();
    switch (GetParam()) {
      case BackendKind::kMemory:
        return memory.build();
      case BackendKind::kPosix:
        path_ = temp_path("apio_backend_contract_test.bin");
        return BackendStack::posix(path_).build();
      case BackendKind::kThrottled:
        return memory.throttled(free_throttle()).build();
      case BackendKind::kResilient:
        return memory.resilient({}).build();
      case BackendKind::kQos:
        return memory.qos(scheduler_).build();
      case BackendKind::kCachedAfterWrite:
        return memory.cached(cache_mode(CacheConsistency::kAfterWrite)).build();
      case BackendKind::kCachedAfterClose:
        return memory.cached(cache_mode(CacheConsistency::kAfterClose)).build();
      case BackendKind::kCachedAfterEpoch:
        return memory.cached(cache_mode(CacheConsistency::kAfterEpoch)).build();
      case BackendKind::kCachedAfterJob:
        return memory.cached(cache_mode(CacheConsistency::kAfterJob)).build();
      case BackendKind::kFaultyHealed: {
        FaultPlan plan;
        plan.fail_every_n_writes = 1;
        plan.fail_every_n_reads = 1;
        plan.fail_every_n_flushes = 1;
        auto faulty = std::make_shared<FaultyBackend>(memory.build(), plan);
        faulty->heal();
        return faulty;
      }
      case BackendKind::kFullStack:
        return memory.throttled(free_throttle())
            .resilient({})
            .qos(scheduler_)
            .cached()
            .build();
    }
    return nullptr;
  }

  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  std::string path_;
  sched::FairSchedulerPtr scheduler_ = std::make_shared<sched::FairScheduler>();
};

TEST_P(BackendContractTest, StartsEmpty) {
  auto b = make_backend();
  EXPECT_EQ(b->size(), 0u);
}

TEST_P(BackendContractTest, WriteThenReadRoundTrip) {
  auto b = make_backend();
  auto data = make_bytes({1, 2, 3, 4, 5});
  b->write(0, data);
  EXPECT_EQ(b->size(), 5u);
  std::vector<std::byte> out(5);
  b->read(0, out);
  EXPECT_EQ(out, data);
}

TEST_P(BackendContractTest, WriteAtOffsetGrowsObject) {
  auto b = make_backend();
  auto data = make_bytes({9});
  b->write(100, data);
  EXPECT_EQ(b->size(), 101u);
  std::vector<std::byte> out(1);
  b->read(100, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 9);
}

TEST_P(BackendContractTest, GapReadsBackZero) {
  auto b = make_backend();
  b->write(10, make_bytes({7}));
  std::vector<std::byte> out(10);
  b->read(0, out);
  for (auto v : out) EXPECT_EQ(std::to_integer<int>(v), 0);
}

TEST_P(BackendContractTest, ReadPastEndThrows) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2}));
  std::vector<std::byte> out(5);
  EXPECT_THROW(b->read(0, out), IoError);
  EXPECT_THROW(b->read(100, out), IoError);
}

TEST_P(BackendContractTest, OverwriteInPlace) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2, 3}));
  b->write(1, make_bytes({9}));
  std::vector<std::byte> out(3);
  b->read(0, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 1);
  EXPECT_EQ(std::to_integer<int>(out[1]), 9);
  EXPECT_EQ(std::to_integer<int>(out[2]), 3);
}

TEST_P(BackendContractTest, TruncateShrinksAndGrows) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2, 3, 4}));
  b->truncate(2);
  EXPECT_EQ(b->size(), 2u);
  b->truncate(6);
  EXPECT_EQ(b->size(), 6u);
  std::vector<std::byte> out(6);
  b->read(0, out);
  EXPECT_EQ(std::to_integer<int>(out[1]), 2);
  EXPECT_EQ(std::to_integer<int>(out[5]), 0);  // zero fill on growth
}

TEST_P(BackendContractTest, StatsCountTransfers) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2, 3}));
  std::vector<std::byte> out(3);
  b->read(0, out);
  b->flush();
  const auto stats = b->stats();
  EXPECT_EQ(stats.bytes_written, 3u);
  EXPECT_EQ(stats.bytes_read, 3u);
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.read_ops, 1u);
  EXPECT_EQ(stats.flushes, 1u);
}

TEST_P(BackendContractTest, ConcurrentDisjointWrites) {
  auto b = make_backend();
  constexpr int kThreads = 8;
  constexpr std::size_t kChunk = 1024;
  b->truncate(kThreads * kChunk);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> chunk(kChunk, std::byte{static_cast<unsigned char>(t + 1)});
      b->write(static_cast<std::uint64_t>(t) * kChunk, chunk);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::byte> out(kChunk);
    b->read(static_cast<std::uint64_t>(t) * kChunk, out);
    for (auto v : out) EXPECT_EQ(std::to_integer<int>(v), t + 1);
  }
}

TEST_P(BackendContractTest, GappedVectoredRoundTrip) {
  auto b = make_backend();
  const auto x = make_bytes({1, 2, 3, 4});
  const auto y = make_bytes({5, 6, 7});
  const auto z = make_bytes({8, 9, 10, 11, 12});
  const std::vector<WriteExtent> writes{{0, x}, {10, y}, {20, z}};
  EXPECT_EQ(b->write_v(writes), 12u);
  EXPECT_EQ(b->size(), 25u);

  std::vector<std::byte> rx(4), ry(3), rz(5);
  const std::vector<ReadExtent> reads{{0, rx}, {10, ry}, {20, rz}};
  EXPECT_EQ(b->read_v(reads), 12u);
  EXPECT_EQ(rx, x);
  EXPECT_EQ(ry, y);
  EXPECT_EQ(rz, z);

  std::vector<std::byte> holes(6);
  const std::vector<ReadExtent> gaps{{4, std::span(holes).first(3)},
                                     {17, std::span(holes).last(3)}};
  EXPECT_EQ(b->read_v(gaps), 6u);
  for (auto v : holes) EXPECT_EQ(std::to_integer<int>(v), 0);
}

TEST_P(BackendContractTest, StatsCountOneOpPerVectoredCall) {
  if (GetParam() == BackendKind::kFaultyHealed) {
    GTEST_SKIP() << "the fault injector splits a batch per extent on purpose";
  }
  auto b = make_backend();
  const auto data = make_bytes({1, 2, 3, 4});
  const std::vector<WriteExtent> writes{{0, data}, {8, data}, {16, data}};
  EXPECT_EQ(b->write_v(writes), 12u);
  std::vector<std::byte> r0(4), r1(4), r2(4);
  const std::vector<ReadExtent> reads{{0, r0}, {8, r1}, {16, r2}};
  EXPECT_EQ(b->read_v(reads), 12u);
  const auto stats = b->stats();
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.read_ops, 1u);
  EXPECT_EQ(stats.bytes_written, 12u);
  EXPECT_EQ(stats.bytes_read, 12u);
}

TEST_P(BackendContractTest, EmptyExtentsTransferNothing) {
  auto b = make_backend();
  const auto data = make_bytes({1, 2});
  const std::vector<WriteExtent> writes{{4, {}}, {8, data}};
  EXPECT_EQ(b->write_v(writes), 2u);
  EXPECT_EQ(b->size(), 10u);

  std::vector<std::byte> out(2);
  const std::vector<ReadExtent> reads{{4, {}}, {8, out}};
  EXPECT_EQ(b->read_v(reads), 2u);
  EXPECT_EQ(out, data);

  // Past end of object an empty extent still transfers nothing, as a
  // batch's trailing extent and as a scalar read.
  const std::vector<ReadExtent> past_end{{8, out}, {100, {}}};
  EXPECT_NO_THROW(EXPECT_EQ(b->read_v(past_end), 2u));
  EXPECT_NO_THROW(b->read(200, {}));
  EXPECT_EQ(b->size(), 10u);
}

TEST_P(BackendContractTest, EmptyWritesDoNotGrow) {
  // An empty write past the end, scalar or as a batch's trailing
  // extent, transfers nothing and leaves the size alone.
  auto b = make_backend();
  b->write(8, make_bytes({1, 2}));
  b->write(200, {});
  EXPECT_EQ(b->size(), 10u);

  const auto data = make_bytes({3});
  const std::vector<WriteExtent> writes{{0, data}, {100, {}}};
  EXPECT_EQ(b->write_v(writes), 1u);
  EXPECT_EQ(b->size(), 10u);
}

TEST_P(BackendContractTest, ConcurrentInterleavedVectoredWrites) {
  // Writers of disjoint but interleaved ranges: thread t owns every 4th
  // 64 B row of one 16 KiB region, so a leaf that sieves one writer's
  // batch rewrites the rows of the other three.
  auto b = make_backend();
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr std::size_t kRow = 64;
  constexpr std::size_t kRegion = 16 * 1024;
  constexpr std::size_t kRows = kRegion / kRow;
  const auto stamp = [](int round, std::size_t row) {
    return std::byte{static_cast<unsigned char>(round * 7 + row % kThreads + 1)};
  };
  b->truncate(kRegion);

  std::barrier sync(kThreads);
  std::atomic<int> bad_rounds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> rows(kRows / kThreads * kRow);
      std::vector<WriteExtent> writes;
      for (std::size_t i = 0; i * kRow < rows.size(); ++i) {
        const std::size_t row = i * kThreads + static_cast<std::size_t>(t);
        writes.push_back({row * kRow, std::span(rows).subspan(i * kRow, kRow)});
      }
      std::vector<std::byte> region(kRegion);
      for (int round = 0; round < kRounds; ++round) {
        std::fill(rows.begin(), rows.end(), stamp(round, static_cast<std::size_t>(t)));
        EXPECT_EQ(b->write_v(writes), rows.size());
        sync.arrive_and_wait();
        if (t == 0) {
          b->read(0, region);
          for (std::size_t i = 0; i < kRegion; ++i) {
            if (region[i] != stamp(round, i / kRow)) {
              bad_rounds.fetch_add(1);
              break;
            }
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_rounds.load(), 0) << "rounds whose region lost a writer's rows";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContractTest,
    ::testing::Values(BackendKind::kMemory, BackendKind::kPosix,
                      BackendKind::kThrottled, BackendKind::kResilient,
                      BackendKind::kQos, BackendKind::kCachedAfterWrite,
                      BackendKind::kCachedAfterClose,
                      BackendKind::kCachedAfterEpoch,
                      BackendKind::kCachedAfterJob, BackendKind::kFaultyHealed,
                      BackendKind::kFullStack),
    [](const auto& info) { return kind_name(info.param); });

// ---------------------------------------------------------------------------
// MemoryBackend's page store

constexpr std::uint64_t kPage = MemoryBackend::kPageBytes;

std::vector<std::byte> page_pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return out;
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte v) { return v == std::byte{0}; });
}

TEST(PagedMemoryTest, MatchesFlatVectorOnRandomOps) {
  // Differential property test: seeded writes, write_v batches, reads,
  // read_v batches and shrink/regrow truncates, at offsets clustered
  // around page boundaries, against a flat byte vector.
  MemoryBackend store;
  std::vector<std::byte> flat;
  BackendStats want;
  std::mt19937 rng(20261016);
  const auto draw = [&](std::uint64_t n) { return rng() % n; };
  const auto near_boundary = [&] {
    const std::uint64_t page = draw(6);
    switch (draw(3)) {
      case 0: return page * kPage + draw(8);
      case 1: return page * kPage + kPage - 1 - draw(8);
      default: return page * kPage + draw(kPage);
    }
  };
  const auto payload_size = [&] {
    return draw(4) == 0 ? 1 + draw(2 * kPage) : draw(600);
  };
  const auto flat_write = [&](std::uint64_t at, std::span<const std::byte> data) {
    if (data.empty()) return;
    if (at + data.size() > flat.size()) flat.resize(at + data.size());
    std::copy(data.begin(), data.end(), flat.begin() + static_cast<std::ptrdiff_t>(at));
  };
  const auto flat_slice = [&](std::uint64_t at, std::size_t n) {
    return std::vector<std::byte>(flat.begin() + static_cast<std::ptrdiff_t>(at),
                                  flat.begin() + static_cast<std::ptrdiff_t>(at + n));
  };
  const auto readable_range = [&] {
    const std::uint64_t at = draw(flat.size());
    return std::pair{at, static_cast<std::size_t>(draw(std::min<std::uint64_t>(
                             flat.size() - at + 1, 2 * kPage)))};
  };

  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    switch (draw(5)) {
      case 0: {
        const std::uint64_t at = near_boundary();
        const auto data = page_pattern(payload_size(), static_cast<unsigned>(op));
        store.write(at, data);
        flat_write(at, data);
        want.bytes_written += data.size();
        ++want.write_ops;
        break;
      }
      case 1: {
        std::vector<std::vector<std::byte>> payloads;
        std::vector<WriteExtent> writes;
        std::uint64_t at = near_boundary();
        for (std::uint64_t i = 0, n = 1 + draw(5); i < n; ++i) {
          payloads.push_back(page_pattern(payload_size(), static_cast<unsigned>(op + i)));
          writes.push_back({at, payloads.back()});
          const std::uint64_t hole = draw(3) == 0 ? 0 : draw(kPage);
          at += payloads.back().size() + hole;
        }
        std::uint64_t total = 0;
        for (const auto& w : writes) {
          flat_write(w.offset, w.data);
          total += w.data.size();
        }
        ASSERT_EQ(store.write_v(writes), total);
        want.bytes_written += total;
        ++want.write_ops;
        break;
      }
      case 2: {
        if (flat.empty()) break;
        const auto [at, n] = readable_range();
        std::vector<std::byte> got(n);
        store.read(at, got);
        ASSERT_EQ(got, flat_slice(at, n));
        want.bytes_read += n;
        ++want.read_ops;
        break;
      }
      case 3: {
        if (flat.empty()) break;
        // Two disjoint sorted ranges: a prefix and a suffix of a window.
        const auto [at, n] = readable_range();
        const std::size_t first = n / 3;
        const std::size_t second_at = n - n / 3;
        std::vector<std::byte> a(first), b(n - second_at);
        const std::vector<ReadExtent> reads{{at, a}, {at + second_at, b}};
        ASSERT_EQ(store.read_v(reads), a.size() + b.size());
        ASSERT_EQ(a, flat_slice(at, a.size()));
        ASSERT_EQ(b, flat_slice(at + second_at, b.size()));
        want.bytes_read += a.size() + b.size();
        ++want.read_ops;
        break;
      }
      default: {
        const std::uint64_t size = near_boundary();
        store.truncate(size);
        flat.resize(size);
        break;
      }
    }
    ASSERT_EQ(store.size(), flat.size());
  }
  std::vector<std::byte> got(flat.size());
  store.read(0, got);
  EXPECT_EQ(got, flat);
  want.bytes_read += flat.size();
  ++want.read_ops;

  const auto stats = store.stats();
  EXPECT_EQ(stats.bytes_written, want.bytes_written);
  EXPECT_EQ(stats.bytes_read, want.bytes_read);
  EXPECT_EQ(stats.write_ops, want.write_ops);
  EXPECT_EQ(stats.read_ops, want.read_ops);
}

TEST(PagedMemoryTest, HolePageReadsZeros) {
  MemoryBackend store;
  store.write(3 * kPage + 5, make_bytes({7}));
  EXPECT_EQ(store.size(), 3 * kPage + 6);
  EXPECT_EQ(store.resident_bytes(), kPage) << "only the written page exists";

  std::vector<std::byte> got(3 * kPage + 6);
  store.read(0, got);
  EXPECT_TRUE(all_zero(std::span(got).first(3 * kPage + 5)));
  EXPECT_EQ(std::to_integer<int>(got.back()), 7);
}

TEST(PagedMemoryTest, ShrinkToMidPageThenRegrowReadsZeros) {
  MemoryBackend store;
  const auto data = page_pattern(2 * kPage, 3);
  store.write(0, data);
  store.truncate(kPage + 100);
  EXPECT_EQ(store.resident_bytes(), 2 * kPage);
  store.truncate(kPage / 2);
  EXPECT_EQ(store.resident_bytes(), kPage) << "whole pages past the end are dropped";

  store.truncate(2 * kPage);  // regrow by truncate
  store.write(3 * kPage, make_bytes({9}));  // and by write
  std::vector<std::byte> got(3 * kPage + 1);
  store.read(0, got);
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + kPage / 2, data.begin()));
  EXPECT_TRUE(all_zero(std::span(got).subspan(kPage / 2, 3 * kPage - kPage / 2)));
  EXPECT_EQ(std::to_integer<int>(got.back()), 9);
}

TEST(PagedMemoryTest, ReadPastEndThrows) {
  MemoryBackend store;
  store.write(0, page_pattern(kPage + 1, 5));
  std::vector<std::byte> out(2);
  EXPECT_THROW(store.read(kPage, out), IoError);
  const std::vector<ReadExtent> reads{{0, out}, {kPage, out}};
  EXPECT_THROW((void)store.read_v(reads), IoError);
  store.read(kPage - 1, out);  // ends exactly at the end: fine
}

TEST(PagedMemoryTest, PinnedSpansSurviveRewriteAndDiscard) {
  // Gathered spans keep showing the bytes they were gathered over: a
  // later write lands in a copy of the page, a discard only unmaps it.
  MemoryBackend store;
  const auto old_bytes = page_pattern(2 * kPage, 1);
  store.write(0, old_bytes);
  {
    MemoryBackend::Pinned pinned(store);
    store.gather(kPage / 2, kPage, pinned);
    ASSERT_EQ(pinned.extents().size(), 2u) << "one extent per page piece";

    const auto new_bytes = page_pattern(2 * kPage, 2);
    store.write(0, new_bytes);
    store.discard(kPage, kPage);
    EXPECT_EQ(store.resident_bytes(), kPage);

    std::uint64_t at = kPage / 2;
    for (const auto& e : pinned.extents()) {
      EXPECT_EQ(e.offset, at);
      EXPECT_TRUE(std::equal(e.data.begin(), e.data.end(),
                             old_bytes.begin() + static_cast<std::ptrdiff_t>(at)));
      at += e.data.size();
    }
    std::vector<std::byte> got(kPage);
    store.read(0, got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), new_bytes.begin()));
    store.read(kPage, got);
    EXPECT_TRUE(all_zero(got)) << "a discarded page reads as zeros";
  }
  EXPECT_EQ(store.stats().bytes_read, 2 * kPage) << "gather counts no transfer";
}

// Page lending: inside a Lend scope a store keeps a whole lent page by
// sharing it; every other extent is copied.

/// The address of the bytes `store` holds for page `index` (a gather
/// of its first byte; a page never written shows the shared zero page).
const std::byte* page_address(MemoryBackend& store, std::uint64_t index) {
  MemoryBackend::Pinned pinned(store);
  store.gather(index * kPage, 1, pinned);
  return pinned.extents().front().data.data();
}

TEST(PagedMemoryTest, LentWholePagesAreSharedAndCopiedBeforeEitherSideWrites) {
  MemoryBackend lender;
  MemoryBackend leaf;
  const auto bytes = page_pattern(2 * kPage, 4);
  lender.write(0, bytes);
  {
    MemoryBackend::Pinned pinned(lender);
    lender.gather(0, 2 * kPage, pinned);
    const MemoryBackend::Lend lend(pinned);
    ASSERT_EQ(leaf.write_v(pinned.extents()), 2 * kPage);
  }
  EXPECT_EQ(page_address(leaf, 0), page_address(lender, 0)) << "shared, not copied";
  EXPECT_EQ(page_address(leaf, 1), page_address(lender, 1));
  EXPECT_EQ(leaf.size(), 2 * kPage);
  EXPECT_EQ(leaf.stats().bytes_written, 2 * kPage) << "a shared page counts as written";
  EXPECT_EQ(lender.resident_bytes(), 2 * kPage) << "a shared page counts on each side";
  EXPECT_EQ(leaf.resident_bytes(), 2 * kPage);

  // A partial write on either side lands in a copy; the other side
  // keeps the lent bytes.
  const std::byte* lent0 = page_address(lender, 0);
  leaf.write(10, make_bytes({0xEE}));
  lender.write(kPage + 20, make_bytes({0xDD}));
  EXPECT_NE(page_address(leaf, 0), lent0);
  EXPECT_EQ(page_address(lender, 0), lent0) << "the lender's unwritten page stays put";
  EXPECT_NE(page_address(lender, 1), page_address(leaf, 1));

  auto want_leaf = bytes;
  want_leaf[10] = std::byte{0xEE};
  auto want_lender = bytes;
  want_lender[kPage + 20] = std::byte{0xDD};
  std::vector<std::byte> got(2 * kPage);
  leaf.read(0, got);
  EXPECT_EQ(got, want_leaf);
  lender.read(0, got);
  EXPECT_EQ(got, want_lender);

  // Lent again, a whole-page overwrite and a shrink into a shared page
  // copy too.
  {
    MemoryBackend::Pinned pinned(lender);
    lender.gather(0, 2 * kPage, pinned);
    const MemoryBackend::Lend lend(pinned);
    ASSERT_EQ(leaf.write_v(pinned.extents()), 2 * kPage);
  }
  ASSERT_EQ(page_address(leaf, 1), page_address(lender, 1));
  const auto fresh = page_pattern(kPage, 5);
  leaf.write(kPage, fresh);
  leaf.truncate(7);
  lender.read(0, got);
  EXPECT_EQ(got, want_lender);
  leaf.truncate(2 * kPage);
  leaf.read(0, got);
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + 7, want_lender.begin()));
  EXPECT_TRUE(all_zero(std::span(got).subspan(7)));
}

/// Writes one extent through write_v.
std::uint64_t write_one(MemoryBackend& store, std::uint64_t offset,
                        std::span<const std::byte> data) {
  const WriteExtent extent{offset, data};
  return store.write_v({&extent, 1});
}

TEST(PagedMemoryTest, ExtentsThatAreNotALentPageAreCopied) {
  MemoryBackend lender;
  lender.write(kPage, page_pattern(2 * kPage, 6));  // page 0 never written
  MemoryBackend::Pinned pinned(lender);
  lender.gather(0, 3 * kPage, pinned);
  ASSERT_EQ(pinned.extents().size(), 3u);
  const WriteExtent zero = pinned.extents()[0];
  const WriteExtent page1 = pinned.extents()[1];

  MemoryBackend outside;
  ASSERT_EQ(write_one(outside, kPage, page1.data), kPage);
  EXPECT_NE(page_address(outside, 1), page1.data.data()) << "no scope is open yet";

  const MemoryBackend::Lend lend(pinned);

  MemoryBackend unaligned;
  ASSERT_EQ(write_one(unaligned, 1, page1.data), kPage);
  EXPECT_NE(page_address(unaligned, 0), page1.data.data());

  MemoryBackend partial;
  ASSERT_EQ(write_one(partial, kPage, page1.data.first(kPage / 2)), kPage / 2);
  EXPECT_NE(page_address(partial, 1), page1.data.data());

  MemoryBackend from_zero_page;
  ASSERT_EQ(write_one(from_zero_page, 0, zero.data), kPage);
  EXPECT_NE(page_address(from_zero_page, 0), zero.data.data())
      << "the never-written page is not lent";
  EXPECT_EQ(from_zero_page.resident_bytes(), kPage);

  MemoryBackend other_thread;
  std::thread([&] { EXPECT_EQ(write_one(other_thread, kPage, page1.data), kPage); })
      .join();
  EXPECT_NE(page_address(other_thread, 1), page1.data.data())
      << "the scope lends only to writes on its own thread";

  // Into the lender itself: the pinned page is copied, at its own
  // offset or another.
  ASSERT_EQ(write_one(lender, kPage, page1.data), kPage);
  ASSERT_EQ(write_one(lender, 4 * kPage, page1.data), kPage);
  EXPECT_NE(page_address(lender, 1), page1.data.data());
  EXPECT_NE(page_address(lender, 4), page1.data.data());

  std::vector<std::byte> got(kPage);
  const auto want = page_pattern(2 * kPage, 6);
  for (auto* store : {&outside, &unaligned, &other_thread, &lender}) {
    store->read(store == &unaligned ? 1 : kPage, got);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
  from_zero_page.read(0, got);
  EXPECT_TRUE(all_zero(got));
}

TEST(PagedMemoryTest, NestedLendScopesRestoreTheOuterScope) {
  MemoryBackend a;
  MemoryBackend b;
  a.write(0, page_pattern(kPage, 8));
  b.write(0, page_pattern(kPage, 9));
  MemoryBackend::Pinned from_a(a);
  MemoryBackend::Pinned from_b(b);
  a.gather(0, kPage, from_a);
  b.gather(0, kPage, from_b);
  const std::byte* page_a = from_a.extents().front().data.data();
  const std::byte* page_b = from_b.extents().front().data.data();

  MemoryBackend leaf;
  const MemoryBackend::Lend outer(from_a);
  {
    const MemoryBackend::Lend inner(from_b);
    ASSERT_EQ(leaf.write_v(from_a.extents()), kPage);
    EXPECT_NE(page_address(leaf, 0), page_a) << "only the innermost scope lends";
    ASSERT_EQ(leaf.write_v(from_b.extents()), kPage);
    EXPECT_EQ(page_address(leaf, 0), page_b);
  }
  ASSERT_EQ(leaf.write_v(from_a.extents()), kPage);
  EXPECT_EQ(page_address(leaf, 0), page_a) << "the outer scope lends again";
}

TEST(PagedMemoryTest, LendReachesTheLeafThroughInlineDecorators) {
  // The fault injector splits a batch into scalar writes; resilience
  // and admission forward inline: the leaf still shares the pages.
  MemoryBackend lender;
  lender.write(0, page_pattern(2 * kPage, 10));
  auto leaf = std::make_shared<MemoryBackend>();
  auto faulty = std::make_shared<FaultyBackend>(leaf, FaultPlan{});
  auto scheduler = std::make_shared<sched::FairScheduler>();
  auto stack = BackendStack::wrap(faulty).resilient({}).qos(scheduler).build();
  {
    MemoryBackend::Pinned pinned(lender);
    lender.gather(0, 2 * kPage, pinned);
    const MemoryBackend::Lend lend(pinned);
    ASSERT_EQ(stack->write_v(pinned.extents()), 2 * kPage);
  }
  EXPECT_EQ(page_address(*leaf, 0), page_address(lender, 0));
  EXPECT_EQ(page_address(*leaf, 1), page_address(lender, 1));
}

// ---------------------------------------------------------------------------
// PosixBackend specifics

TEST(PosixBackendTest, PersistsAcrossReopen) {
  const std::string path = temp_path("apio_posix_persist.bin");
  {
    PosixBackend b(path, PosixBackend::Mode::kCreateTruncate);
    b.write(0, make_bytes({42}));
    b.flush();
  }
  {
    PosixBackend b(path, PosixBackend::Mode::kOpenExisting);
    std::vector<std::byte> out(1);
    b.read(0, out);
    EXPECT_EQ(std::to_integer<int>(out[0]), 42);
  }
  std::filesystem::remove(path);
}

TEST(PosixBackendTest, OpenMissingFileThrows) {
  EXPECT_THROW(PosixBackend("/nonexistent-dir-xyz/file.bin",
                            PosixBackend::Mode::kOpenExisting),
               IoError);
}

TEST(PosixBackendTest, CreateTruncateClearsOldContent) {
  const std::string path = temp_path("apio_posix_trunc.bin");
  {
    PosixBackend b(path, PosixBackend::Mode::kCreateTruncate);
    b.write(0, make_bytes({1, 2, 3}));
  }
  {
    PosixBackend b(path, PosixBackend::Mode::kCreateTruncate);
    EXPECT_EQ(b.size(), 0u);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// ThrottledBackend

TEST(ThrottledBackendTest, DelegatesData) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1e12;
  params.time_scale = 0.0;  // no real sleeping in unit tests
  ThrottledBackend throttled(inner, params);
  throttled.write(0, make_bytes({5, 6}));
  std::vector<std::byte> out(2);
  throttled.read(0, out);
  EXPECT_EQ(std::to_integer<int>(out[1]), 6);
}

TEST(ThrottledBackendTest, AccountsModelledDelay) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1000.0;  // 1000 B/s
  params.latency = 0.5;
  params.time_scale = 0.0;
  ThrottledBackend throttled(inner, params);
  std::vector<std::byte> data(2000, std::byte{1});
  throttled.write(0, data);
  // 0.5 s latency + 2000/1000 s transfer = 2.5 s modelled.
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 2.5, 1e-9);
}

TEST(ThrottledBackendTest, SharedChannelSerializesDelays) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1000.0;
  params.time_scale = 0.0;
  ThrottledBackend throttled(inner, params);
  std::vector<std::byte> data(500, std::byte{1});
  throttled.write(0, data);
  throttled.write(500, data);
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 1.0, 1e-9);
  EXPECT_EQ(throttled.stats().write_ops, 2u);
}

TEST(ThrottledBackendTest, ActuallySleepsWhenScaled) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1.0 * kMB;
  params.latency = 0.02;
  params.time_scale = 1.0;
  ThrottledBackend throttled(inner, params);
  const auto t0 = std::chrono::steady_clock::now();
  throttled.write(0, make_bytes({1}));
  const auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);
  EXPECT_GE(dt.count(), 0.015);
}

TEST(ThrottledBackendTest, RejectsBadParams) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 0.0;
  EXPECT_THROW(ThrottledBackend(inner, params), InvalidArgumentError);
  EXPECT_THROW(ThrottledBackend(nullptr, ThrottleParams{}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// PfsModel — the figure-shaping physics.

TEST(PfsModelTest, SummitFactoryParameters) {
  auto pfs = PfsModel::summit_gpfs();
  EXPECT_EQ(pfs.params().name, "summit-gpfs");
  EXPECT_GT(pfs.params().aggregate_cap, 100.0 * kGB);
}

TEST(PfsModelTest, CoriCapScalesWithStripeCount) {
  auto narrow = PfsModel::cori_lustre(8);
  auto wide = PfsModel::cori_lustre(72);
  EXPECT_LT(narrow.params().aggregate_cap, wide.params().aggregate_cap);
  EXPECT_NEAR(wide.params().aggregate_cap / narrow.params().aggregate_cap, 9.0, 1e-9);
}

TEST(PfsModelTest, MoreNodesNeverSlower) {
  auto pfs = PfsModel::cori_lustre();
  const std::uint64_t bytes = 32ull * kMiB * 1024;  // 32 GiB aggregate
  double prev = 0.0;
  for (int nodes = 1; nodes <= 256; nodes *= 2) {
    const double bw = pfs.effective_bandwidth(bytes, nodes * 32, nodes,
                                              IoKind::kWrite);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
}

TEST(PfsModelTest, WeakScalingSaturatesAtCap) {
  auto pfs = PfsModel::cori_lustre(72);
  // Weak scaling: 32 MiB per rank, 32 ranks/node.
  const double cap = pfs.params().aggregate_cap;
  const int nodes = 512;
  const int ranks = nodes * 32;
  const std::uint64_t bytes = static_cast<std::uint64_t>(ranks) * 32 * kMiB;
  const double bw = pfs.effective_bandwidth(bytes, ranks, nodes, IoKind::kWrite);
  EXPECT_LE(bw, cap + 1.0);
  EXPECT_GT(bw, 0.9 * cap);
}

TEST(PfsModelTest, SmallPerRankRequestsLoseEfficiency) {
  auto pfs = PfsModel::summit_gpfs();
  const int nodes = 16;
  const int ranks = nodes * 6;
  const std::uint64_t big = static_cast<std::uint64_t>(ranks) * 32 * kMiB;
  const std::uint64_t small = static_cast<std::uint64_t>(ranks) * 16 * kKiB;
  const double bw_big = pfs.effective_bandwidth(big, ranks, nodes, IoKind::kWrite);
  const double bw_small = pfs.effective_bandwidth(small, ranks, nodes, IoKind::kWrite);
  EXPECT_GT(bw_big, 5.0 * bw_small);
}

TEST(PfsModelTest, StrongScalingAggregateDeclinesOnGpfs) {
  // The Castro/EQSIM regime: fixed ~100 MB dataset, growing rank count
  // => observed aggregate bandwidth must fall (Fig. 4c / Fig. 6).
  auto pfs = PfsModel::summit_gpfs();
  const std::uint64_t bytes = 100ull * 1000 * 1000;
  double prev = 1e30;
  for (int nodes = 32; nodes <= 1024; nodes *= 2) {
    const double bw = pfs.aggregate_bandwidth(bytes, nodes * 6, nodes, IoKind::kWrite);
    EXPECT_LT(bw, prev);
    prev = bw;
  }
}

TEST(PfsModelTest, ReadsFasterThanWrites) {
  auto pfs = PfsModel::summit_gpfs();
  const std::uint64_t bytes = 1ull * kGiB;
  const double w = pfs.effective_bandwidth(bytes, 96, 16, IoKind::kWrite);
  const double r = pfs.effective_bandwidth(bytes, 96, 16, IoKind::kRead);
  EXPECT_GT(r, w);
}

TEST(PfsModelTest, ContentionScalesBandwidth) {
  auto pfs = PfsModel::cori_lustre();
  const std::uint64_t bytes = 8ull * kGiB;
  const double full = pfs.effective_bandwidth(bytes, 128, 4, IoKind::kWrite, 1.0);
  const double half = pfs.effective_bandwidth(bytes, 128, 4, IoKind::kWrite, 0.5);
  EXPECT_NEAR(half, 0.5 * full, 1e-6);
}

TEST(PfsModelTest, IoSecondsIncludesLatencyAndMetadata) {
  PfsParams p;
  p.name = "toy";
  p.node_bandwidth = 1.0 * kGB;
  p.aggregate_cap = 10.0 * kGB;
  p.per_rank_half_size = 0.0;  // no efficiency knee
  p.open_latency = 1.0;
  p.meta_per_rank = 0.5;
  PfsModel pfs(p);
  // 1 GB over 1 node / 2 ranks: 1 (open) + 1 (meta) + 1 (data) = 3 s.
  const double t = pfs.io_seconds(static_cast<std::uint64_t>(1.0 * kGB), 2, 1,
                                  IoKind::kWrite);
  EXPECT_NEAR(t, 3.0, 1e-9);
}

TEST(PfsModelTest, InvalidInputsRejected) {
  auto pfs = PfsModel::summit_gpfs();
  EXPECT_THROW(pfs.io_seconds(1, 0, 1, IoKind::kWrite), InvalidArgumentError);
  EXPECT_THROW(pfs.io_seconds(1, 1, 1, IoKind::kWrite, 0.0), InvalidArgumentError);
  EXPECT_THROW(pfs.io_seconds(1, 1, 1, IoKind::kWrite, 1.5), InvalidArgumentError);
  EXPECT_THROW(PfsModel::cori_lustre(0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// MemcpyModel — transactional-overhead physics (Sec. III-B1).

TEST(MemcpyModelTest, BandwidthConstantAbove32MiB) {
  auto m = MemcpyModel::summit_dram();
  const int ranks = 6;
  const int nodes = 1;
  const double bw32 = m.aggregate_bandwidth(32ull * kMiB * ranks, ranks, nodes);
  const double bw256 = m.aggregate_bandwidth(256ull * kMiB * ranks, ranks, nodes);
  // Above the knee the achieved bandwidth varies by < 10 %.
  EXPECT_NEAR(bw256 / bw32, 1.0, 0.10);
}

TEST(MemcpyModelTest, SmallCopiesLoseBandwidth) {
  auto m = MemcpyModel::cori_dram();
  const double big = m.aggregate_bandwidth(64ull * kMiB * 32, 32, 1);
  const double small = m.aggregate_bandwidth(64ull * kKiB * 32, 32, 1);
  EXPECT_GT(big, 5.0 * small);
}

TEST(MemcpyModelTest, AggregateBandwidthScalesWithNodes) {
  auto m = MemcpyModel::summit_dram();
  const std::uint64_t per_node = 256ull * kMiB;
  const double bw1 = m.aggregate_bandwidth(per_node * 1, 6, 1);
  const double bw64 = m.aggregate_bandwidth(per_node * 64, 6 * 64, 64);
  EXPECT_NEAR(bw64 / bw1, 64.0, 1.0);
}

TEST(MemcpyModelTest, RejectsBadConfig) {
  EXPECT_THROW(MemcpyModel(0.0, 1.0, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace apio::storage
