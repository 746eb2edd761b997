// Deterministic regression tests for races fixed in the concurrent
// substrate.  Each test pins one contract:
//
//   * AsyncConnector op queue close/drain — a submit racing close()
//     either throws StateError or returns a request that completes: its
//     write lands, or it fails with its own StateError; nothing is left
//     pending or counted twice, and the staging budget is returned in
//     full.  A submit after close() always throws.
//   * pmpi barrier generations — the sense-reversing barrier never
//     releases a waiter into an earlier generation, so work done before
//     the barrier is visible to every rank after it.
//   * pmpi collective slots — back-to-back collectives do not bleed one
//     round's exchange buffers into the next.
//   * AsyncStats — stats() taken concurrently with traffic is a
//     coherent snapshot (monotonic counters, no torn reads).
//
// All tests synchronise on events/atomics only (no wall-clock sleeps)
// and run under the `tsan` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "pmpi/world.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"

namespace apio {
namespace {

// The connector's FIFO op queue is the pool its stream drains: pushes
// from several threads race close() with no back-pressure in the way.
TEST(ConcurrencyTest, PoolCloseRace) {
  constexpr int kProducers = 4;
  constexpr int kPushesPerProducer = 400;
  constexpr std::uint64_t kPayload = 64;

  auto leaf = std::make_shared<storage::MemoryBackend>();
  auto file = h5::File::create(leaf);
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kUInt8, {kProducers * kPushesPerProducer * kPayload});
  vol::AsyncConnector connector(file);

  // Slot p * kPushesPerProducer + i holds producer p's i-th write.
  std::vector<vol::RequestPtr> requests(kProducers * kPushesPerProducer);
  std::atomic<std::uint64_t> pushed{0};  // submits that did not throw
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPushesPerProducer; ++i) {
        const int slot = p * kPushesPerProducer + i;
        const std::vector<std::uint8_t> payload(kPayload,
                                                static_cast<std::uint8_t>(slot));
        try {
          requests[static_cast<std::size_t>(slot)] = connector.dataset_write(
              ds, h5::Selection::offsets({slot * kPayload}, {kPayload}),
              std::as_bytes(std::span<const std::uint8_t>(payload)));
          pushed.fetch_add(1);
        } catch (const StateError&) {
          return;  // connector closed underneath us: allowed outcome
        }
      }
    });
  }

  // Close while producers are mid-stride so pushes genuinely race it.
  while (pushed.load() < kPushesPerProducer) {
  }
  connector.close();
  for (auto& t : producers) t.join();

  // Every accepted write was counted once and ran to exactly one
  // outcome: it landed, or it failed with its own StateError.
  auto reopened = h5::File::open(leaf);
  auto landed = reopened->dataset_at("/d");
  std::uint64_t returned = 0;
  std::uint64_t succeeded = 0;
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    const vol::RequestPtr& request = requests[slot];
    if (request == nullptr) continue;
    ++returned;
    ASSERT_TRUE(request->test()) << "slot " << slot << " left pending";
    if (request->failed()) {
      EXPECT_THROW(request->wait(), StateError) << "slot " << slot;
      continue;
    }
    ++succeeded;
    EXPECT_EQ(landed.read_vector<std::uint8_t>(
                  h5::Selection::offsets({slot * kPayload}, {kPayload})),
              std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(slot)))
        << "slot " << slot;
  }
  const vol::AsyncStats stats = connector.stats();
  EXPECT_EQ(returned, pushed.load());
  EXPECT_EQ(stats.writes_enqueued, pushed.load());
  EXPECT_EQ(stats.failed_ops, returned - succeeded);
  // The writes returned before close() began were queued ahead of it.
  EXPECT_GE(succeeded, static_cast<std::uint64_t>(kPushesPerProducer));
}

TEST(ConcurrencyTest, PoolPushAfterCloseAlwaysThrows) {
  auto leaf = std::make_shared<storage::MemoryBackend>();
  auto file = h5::File::create(leaf);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {8});
  vol::AsyncConnector connector(file);
  const std::vector<std::uint8_t> payload(8, 7);
  const auto bytes = std::as_bytes(std::span<const std::uint8_t>(payload));
  auto accepted = connector.dataset_write(ds, h5::Selection::all(), bytes);
  connector.close();

  // The op accepted before close() was drained and ran; every entry
  // point after it throws instead of queueing.
  ASSERT_TRUE(accepted->test());
  EXPECT_FALSE(accepted->failed());
  EXPECT_THROW(connector.dataset_write(ds, h5::Selection::all(), bytes),
               StateError);
  std::vector<std::uint8_t> out(8);
  EXPECT_THROW(connector.dataset_read(ds, h5::Selection::all(),
                                      std::as_writable_bytes(std::span(out))),
               StateError);
  EXPECT_THROW(connector.prefetch(ds, h5::Selection::all()), StateError);
  EXPECT_THROW(connector.flush(), StateError);
  const vol::AsyncStats stats = connector.stats();
  EXPECT_EQ(stats.writes_enqueued, 1u);
  EXPECT_EQ(stats.reads_enqueued, 0u);
  EXPECT_EQ(stats.prefetches_enqueued, 0u);
  EXPECT_EQ(stats.failed_ops, 0u);
  EXPECT_EQ(h5::File::open(leaf)->dataset_at("/d").read_vector<std::uint8_t>(
                h5::Selection::all()),
            payload);
}

TEST(ConcurrencyTest, ConnectorCloseRace) {
  constexpr int kSubmitters = 4;
  constexpr int kWritesPerSubmitter = 64;
  constexpr std::uint64_t kPayload = 64 * 1024;

  obs::set_enabled(true);
  auto& staged = obs::Registry::instance().gauge("vol.async.staged_outstanding");
  auto leaf = std::make_shared<storage::MemoryBackend>();
  auto file = h5::File::create(leaf);
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kUInt8, {kSubmitters * kWritesPerSubmitter * kPayload});
  // A two-write staging budget parks most submitters in back-pressure.
  // The ops that close() waits out wake them, so their pushes race the
  // stream's stop flag.
  vol::AsyncOptions options;
  options.max_staged_bytes = 2 * kPayload;
  vol::AsyncConnector connector(file, options);

  // Slot t * kWritesPerSubmitter + i holds submitter t's i-th write.
  std::vector<vol::RequestPtr> requests(kSubmitters * kWritesPerSubmitter);
  std::atomic<int> returned{0};  // submits that did not throw
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerSubmitter; ++i) {
        const int slot = t * kWritesPerSubmitter + i;
        const std::vector<std::uint8_t> payload(kPayload,
                                                static_cast<std::uint8_t>(slot));
        try {
          requests[static_cast<std::size_t>(slot)] = connector.dataset_write(
              ds, h5::Selection::offsets({slot * kPayload}, {kPayload}),
              std::as_bytes(std::span<const std::uint8_t>(payload)));
          returned.fetch_add(1);
        } catch (const StateError&) {
          return;  // connector closed underneath us: allowed outcome
        }
      }
    });
  }

  // Close while submitters are mid-stride so submits genuinely race it.
  std::thread closer([&] {
    while (returned.load() < kWritesPerSubmitter) {
    }
    connector.close();
  });
  for (auto& t : submitters) t.join();
  closer.join();

  // Every returned request completed: its bytes landed, or it failed
  // with its own StateError.  Nothing is left pending.
  auto reopened = h5::File::open(leaf);
  auto landed = reopened->dataset_at("/d");
  int succeeded = 0;
  for (std::size_t slot = 0; slot < requests.size(); ++slot) {
    const vol::RequestPtr& request = requests[slot];
    if (request == nullptr) continue;
    ASSERT_TRUE(request->test()) << "slot " << slot << " left pending";
    if (request->failed()) {
      EXPECT_THROW(request->wait(), StateError) << "slot " << slot;
      continue;
    }
    ++succeeded;
    EXPECT_EQ(landed.read_vector<std::uint8_t>(
                  h5::Selection::offsets({slot * kPayload}, {kPayload})),
              std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(slot)))
        << "slot " << slot;
  }
  // The writes returned before close() began were queued ahead of it.
  EXPECT_GE(succeeded, kWritesPerSubmitter);
  EXPECT_EQ(staged.value(), 0);
  obs::set_enabled(false);
}

TEST(ConcurrencyTest, BarrierGenerationsStayOrdered) {
  // Regression for the barrier-generation race: a waiter released into
  // an earlier generation would observe a stale counter here.  The
  // second barrier fences the check from the next round's increments.
  constexpr int kRanks = 8;
  constexpr int kRounds = 60;
  std::atomic<int> counter{0};
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    for (int round = 0; round < kRounds; ++round) {
      counter.fetch_add(1);
      comm.barrier();
      EXPECT_EQ(counter.load(), kRanks * (round + 1));
      comm.barrier();
    }
  });
}

TEST(ConcurrencyTest, CollectiveSlotsDoNotBleedAcrossRounds) {
  // Regression for collective-slot reuse: back-to-back allgather/bcast
  // rounds must each see their own round's values.
  constexpr int kRanks = 6;
  constexpr int kRounds = 40;
  pmpi::run(kRanks, [](pmpi::Communicator& comm) {
    for (int round = 0; round < kRounds; ++round) {
      auto all = comm.allgather(comm.rank() * 1000 + round);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 1000 + round);
      }
      int token = comm.rank() == 0 ? round + 7 : -1;
      comm.bcast(std::span<int>(&token, 1), 0);
      EXPECT_EQ(token, round + 7);
    }
  });
}

TEST(ConcurrencyTest, AsyncStatsSnapshotDuringTraffic) {
  constexpr int kWriters = 3;
  constexpr int kWritesPerThread = 60;
  constexpr std::uint64_t kElems = 256;

  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  vol::AsyncConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8,
                                        {kWriters * kElems});

  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Snapshots racing live traffic: counters must be coherent (never
    // torn, never regressing) the whole time.
    std::uint64_t last_writes = 0;
    std::uint64_t last_bytes = 0;
    while (!done.load()) {
      const auto s = connector.stats();
      EXPECT_GE(s.writes_enqueued, last_writes);
      EXPECT_GE(s.bytes_staged, last_bytes);
      // Bytes are staged before the write counter ticks, so any
      // coherent snapshot accounts at least kElems bytes per write.
      EXPECT_GE(s.bytes_staged, s.writes_enqueued * kElems);
      last_writes = s.writes_enqueued;
      last_bytes = s.bytes_staged;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      const auto slab = h5::Selection::offsets(
          {static_cast<std::uint64_t>(t) * kElems}, {kElems});
      std::vector<std::uint8_t> payload(kElems, static_cast<std::uint8_t>(t));
      for (int i = 0; i < kWritesPerThread; ++i) {
        connector.dataset_write(
            ds, slab, std::as_bytes(std::span<const std::uint8_t>(payload)));
      }
    });
  }
  for (auto& t : writers) t.join();
  connector.wait_all();
  done.store(true);
  reader.join();

  EXPECT_EQ(connector.stats().writes_enqueued,
            static_cast<std::uint64_t>(kWriters) * kWritesPerThread);
  connector.close();
}

TEST(ConcurrencyTest, StagingBudgetAndPrefetchCacheShareTraffic) {
  // Writers parked on a small staging budget, a prefetching reader and a
  // stats poller all contend for the connector's state at once.
  constexpr int kWriters = 2;
  constexpr int kWritesPerWriter = 48;
  constexpr int kReads = 64;
  constexpr std::uint64_t kPayload = 16 * 1024;
  constexpr std::uint64_t kBudget = 3 * kPayload;

  auto leaf = std::make_shared<storage::MemoryBackend>();
  auto file = h5::File::create(leaf);
  auto out = file->root().create_dataset(
      "out", h5::Datatype::kUInt8, {kWriters * kWritesPerWriter * kPayload});
  auto in = file->root().create_dataset("in", h5::Datatype::kUInt8,
                                        {kReads * kPayload});
  std::vector<std::uint8_t> source(kReads * kPayload);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = static_cast<std::uint8_t>(i * 7 + i / kPayload);
  }
  in.write(h5::Selection::all(), std::span<const std::uint8_t>(source));

  vol::AsyncOptions options;
  options.max_staged_bytes = kBudget;
  vol::AsyncConnector connector(file, options);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      const auto s = connector.stats();
      EXPECT_LE(s.staged_high_watermark, kBudget);
      EXPECT_LE(s.cache_hits + s.cache_misses, static_cast<std::uint64_t>(kReads));
    }
  });
  std::thread reader([&] {
    // Every fourth read skips its prefetch, so hits and misses both occur.
    std::vector<std::uint8_t> got(kPayload);
    for (std::uint64_t r = 0; r < kReads; ++r) {
      const auto slab = h5::Selection::offsets({r * kPayload}, {kPayload});
      if (r % 4 != 3) connector.prefetch(in, slab);
      connector.dataset_read(in, slab, std::as_writable_bytes(std::span(got)))->wait();
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             source.begin() + static_cast<std::ptrdiff_t>(r * kPayload)))
          << "read " << r;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kWritesPerWriter; ++i) {
        const std::uint64_t slot = t * kWritesPerWriter + i;
        const std::vector<std::uint8_t> payload(kPayload,
                                                static_cast<std::uint8_t>(slot));
        connector.dataset_write(out, h5::Selection::offsets({slot * kPayload}, {kPayload}),
                                std::as_bytes(std::span<const std::uint8_t>(payload)));
      }
    });
  }
  for (auto& t : writers) t.join();
  reader.join();
  connector.wait_all();
  done.store(true);
  poller.join();

  const auto s = connector.stats();
  EXPECT_EQ(s.cache_hits + s.cache_misses, static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(s.cache_hits, static_cast<std::uint64_t>(kReads - kReads / 4));
  EXPECT_EQ(s.bytes_staged, kWriters * kWritesPerWriter * kPayload);
  EXPECT_LE(s.staged_high_watermark, kBudget);
  EXPECT_EQ(s.failed_ops, 0u);
  for (std::uint64_t slot = 0; slot < kWriters * kWritesPerWriter; ++slot) {
    EXPECT_EQ(out.read_vector<std::uint8_t>(
                  h5::Selection::offsets({slot * kPayload}, {kPayload})),
              std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(slot)))
        << "slot " << slot;
  }
  connector.close();
}

TEST(ConcurrencyTest, ConnectorEnqueueAfterCloseThrows) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto connector = std::make_unique<vol::AsyncConnector>(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {8});
  std::vector<std::uint8_t> payload(8, 1);
  connector->dataset_write(
      ds, h5::Selection::all(),
      std::as_bytes(std::span<const std::uint8_t>(payload)));
  connector->close();
  EXPECT_THROW(connector->dataset_write(
                   ds, h5::Selection::all(),
                   std::as_bytes(std::span<const std::uint8_t>(payload))),
               StateError);
}

}  // namespace
}  // namespace apio
