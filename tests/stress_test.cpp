// Concurrency stress tests: many threads hammering one async connector,
// mixed metadata + data traffic, and sustained pipelines — the
// conditions a production VOL connector faces under an MPI application.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "model/advisor.h"
#include "pmpi/world.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/event_set.h"

namespace apio {
namespace {

// Sanitizer builds define APIO_STRESS_LITE (tests/CMakeLists.txt):
// every operation is ~10-20x slower under TSan/ASan, so iteration
// counts drop while thread counts — the source of interleavings —
// stay the same.
constexpr int stress_iters(int full, int lite) {
#if defined(APIO_STRESS_LITE)
  (void)full;
  return lite;
#else
  (void)lite;
  return full;
#endif
}

h5::FilePtr mem_file() {
  return h5::File::create(std::make_shared<storage::MemoryBackend>());
}

TEST(StressTest, ManyThreadsOneAsyncConnector) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = stress_iters(50, 8);
  constexpr std::uint64_t kElems = 64;

  auto file = mem_file();
  vol::AsyncConnector connector(file);
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kInt64, {kThreads * kElems});

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t offset = static_cast<std::uint64_t>(t) * kElems;
      const h5::Selection slab = h5::Selection::offsets({offset}, {kElems});
      std::vector<std::int64_t> values(kElems);
      std::vector<std::int64_t> readback(kElems);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::iota(values.begin(), values.end(),
                  static_cast<std::int64_t>(t * 1000 + op));
        auto w = connector.dataset_write(
            ds, slab, std::as_bytes(std::span<const std::int64_t>(values)));
        auto r = connector.dataset_read(
            ds, slab, std::as_writable_bytes(std::span<std::int64_t>(readback)));
        r->wait();
        // FIFO per connector: the read observes this thread's write of
        // this round (no other thread touches this slab).
        if (readback != values) ++failures;
        if (w->failed()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  connector.wait_all();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = connector.stats();
  EXPECT_EQ(stats.writes_enqueued, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  connector.close();
}

TEST(StressTest, ConcurrentMetadataAndDataTraffic) {
  constexpr int kThreads = 6;
  constexpr int kDatasetsPerThread = stress_iters(20, 6);
  auto file = mem_file();
  vol::AsyncConnector connector(file);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto g = file->root().create_group("thread" + std::to_string(t));
      for (int d = 0; d < kDatasetsPerThread; ++d) {
        auto ds = g.create_dataset("d" + std::to_string(d), h5::Datatype::kInt32, {16});
        std::vector<std::int32_t> values(16, t * 100 + d);
        connector.dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::int32_t>(values)));
      }
    });
  }
  for (auto& th : threads) th.join();
  connector.wait_all();

  for (int t = 0; t < kThreads; ++t) {
    auto g = file->root().open_group("thread" + std::to_string(t));
    ASSERT_EQ(g.dataset_names().size(), static_cast<std::size_t>(kDatasetsPerThread));
    const int last = kDatasetsPerThread - 1;
    auto v = g.open_dataset("d" + std::to_string(last))
                 .read_vector<std::int32_t>(h5::Selection::all());
    EXPECT_EQ(v[0], t * 100 + last);
  }
  connector.close();
}

TEST(StressTest, SustainedPipelineWithBackpressure) {
  vol::AsyncOptions options;
  options.max_staged_bytes = 8 * 1024;
  auto file = mem_file();
  vol::AsyncConnector connector(file, options);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {512 * 1024});

  std::vector<std::uint8_t> chunk(1024, 7);
  vol::EventSet es;
  constexpr int kChunks = stress_iters(512, 96);
  for (int i = 0; i < kChunks; ++i) {
    es.insert(connector.dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * 1024}, {1024}),
        std::as_bytes(std::span<const std::uint8_t>(chunk))));
  }
  es.wait();
  EXPECT_EQ(es.num_errors(), 0u);
  EXPECT_LE(connector.stats().staged_high_watermark, options.max_staged_bytes);
  connector.close();
}

TEST(StressTest, PmpiHighRankCountCollectives) {
  constexpr int kRanks = stress_iters(32, 12);
  pmpi::run(kRanks, [](pmpi::Communicator& comm) {
    for (int round = 0; round < stress_iters(10, 4); ++round) {
      const std::uint64_t sum = comm.allreduce_sum(std::uint64_t{1});
      EXPECT_EQ(sum, static_cast<std::uint64_t>(kRanks));
      auto all = comm.allgather(comm.rank());
      EXPECT_EQ(all[static_cast<std::size_t>(comm.rank())], comm.rank());
      comm.barrier();
    }
  });
}

TEST(StressTest, AdvisorUnderConcurrentObservations) {
  auto advisor = std::make_shared<model::ModeAdvisor>();
  constexpr int kThreads = 4;
  constexpr int kObservations = stress_iters(100, 30);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 1; i <= kObservations; ++i) {
        vol::IoRecord r;
        r.op = vol::IoOp::kWrite;
        r.bytes = static_cast<std::uint64_t>(1000 * i + t);
        r.ranks = t + 1;
        r.blocking_seconds = static_cast<double>(r.bytes) / 1e9;
        r.completion_seconds = r.blocking_seconds;
        r.async = (t % 2) == 0;
        advisor->on_io(r);
        advisor->record_compute(0.01 * i);
        // Rank threads' epoch markers race the records too.
        obs::emit_epoch_event({obs::EpochEvent::Kind::kBegin, i, t, 1.0 * i});
        obs::emit_epoch_event({obs::EpochEvent::Kind::kComputeDone, i, t, 1.0 * i + 0.01});
        if (i % 10 == 0) {
          // Interleaved queries must never crash or deadlock.
          (void)advisor->sync_ready();
          (void)advisor->async_ready();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(advisor->sample_count(),
            static_cast<std::size_t>(kThreads) * kObservations);
  EXPECT_EQ(advisor->compute_observations(),
            2 * static_cast<std::size_t>(kThreads) * kObservations);
  EXPECT_TRUE(advisor->sync_ready());
  EXPECT_TRUE(advisor->async_ready());
}

}  // namespace
}  // namespace apio
