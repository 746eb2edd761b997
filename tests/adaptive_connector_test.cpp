// Tests for the adaptive connector: exploration, routing, correctness
// under mode switches, and convergence to the oracle-best mode.
#include <gtest/gtest.h>

#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/debug/thread_role.h"
#include "common/units.h"
#include "obs/epoch_analyzer.h"
#include "pmpi/world.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/adaptive_connector.h"
#include "workloads/vpic_io.h"

namespace apio::vol {
namespace {

storage::BackendPtr slow_pfs(double bandwidth) {
  storage::ThrottleParams params;
  params.bandwidth = bandwidth;
  params.time_scale = 1.0;
  return storage::BackendStack::memory().throttled(params).build();
}

TEST(AdaptiveConnectorTest, DataCorrectAcrossModeSwitches) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {256});

  for (int epoch = 0; epoch < 16; ++epoch) {
    obs::EpochScope scope(epoch);
    scope.compute_done();
    std::vector<std::int32_t> values(16);
    std::iota(values.begin(), values.end(), epoch * 16);
    connector
        .dataset_write(
            ds, h5::Selection::offsets({static_cast<std::uint64_t>(epoch) * 16}, {16}),
            std::as_bytes(std::span<const std::int32_t>(values)))
        ->wait();
  }
  connector.wait_all();
  auto all = ds.read_vector<std::int32_t>(h5::Selection::all());
  for (int i = 0; i < 256; ++i) EXPECT_EQ(all[i], i);
  connector.close();
}

TEST(AdaptiveConnectorTest, ExploresBothModes) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64 * 1024});
  std::vector<std::uint8_t> chunk(4 * 1024, 1);
  for (int i = 0; i < 16; ++i) {
    obs::EpochScope scope(i);
    scope.compute_done();
    connector.dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * chunk.size()},
                                   {chunk.size()}),
        std::as_bytes(std::span<const std::uint8_t>(chunk)));
  }
  connector.wait_all();
  const auto stats = connector.adaptive_stats();
  EXPECT_GT(stats.writes_sync, 0u);   // sync baseline explored first
  EXPECT_GT(stats.writes_async, 0u);  // then async
  connector.close();
}

TEST(AdaptiveConnectorTest, ConvergesToAsyncWhenComputeCoversIo) {
  // Slow PFS, ample compute: after exploration every write must route
  // async.
  auto file = h5::File::create(slow_pfs(16.0 * kMiB));
  AdaptiveConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {32u * 256 * 1024});
  std::vector<std::uint8_t> chunk(256 * 1024, 1);

  model::IoMode last_mode = model::IoMode::kSync;
  for (int i = 0; i < 10; ++i) {
    // Simulated compute phase (the paper's t_comp), seen by the advisor
    // through the epoch markers.
    obs::EpochScope scope(i);
    std::this_thread::sleep_for(  // apio-lint: allow(no-test-sleep)
        std::chrono::milliseconds(40));
    scope.compute_done();
    last_mode = connector.planned_mode(chunk.size());
    connector.dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * chunk.size()},
                                   {chunk.size()}),
        std::as_bytes(std::span<const std::uint8_t>(chunk)));
  }
  connector.wait_all();
  EXPECT_EQ(last_mode, model::IoMode::kAsync);
  EXPECT_GE(connector.adaptive_stats().writes_async, 5u);
  connector.close();
}

TEST(AdaptiveConnectorTest, FallsBackToSyncWhenNothingToOverlap) {
  // Fast storage, negligible compute: staging is pure overhead and the
  // advisor must settle on sync.
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64u << 20});
  std::vector<std::uint8_t> chunk(2 << 20, 1);  // 2 MiB: memcpy cost visible

  model::IoMode last_mode = model::IoMode::kAsync;
  for (int i = 0; i < 12; ++i) {
    obs::EpochScope scope(i);
    scope.compute_done();
    last_mode = connector.planned_mode(chunk.size());
    connector
        .dataset_write(
            ds,
            h5::Selection::offsets({static_cast<std::uint64_t>(i) * chunk.size()},
                                   {chunk.size()}),
            std::as_bytes(std::span<const std::uint8_t>(chunk)))
        ->wait();
  }
  connector.wait_all();
  EXPECT_EQ(last_mode, model::IoMode::kSync);
  connector.close();
}

TEST(AdaptiveConnectorTest, PrefetchedReadsServeFromCache) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {64});
  std::vector<std::int32_t> values(64);
  std::iota(values.begin(), values.end(), 0);
  connector.dataset_write(ds, h5::Selection::all(),
                          std::as_bytes(std::span<const std::int32_t>(values)));
  connector.wait_all();

  connector.prefetch(ds, h5::Selection::all());
  connector.wait_all();
  // Teach the advisor that compute exists so reads may route async:
  // four 0.5 s compute windows, marked with fixed timestamps.
  for (int i = 0; i < 4; ++i) {
    obs::emit_epoch_event({obs::EpochEvent::Kind::kBegin, i, 0, 1.0 * i});
    obs::emit_epoch_event({obs::EpochEvent::Kind::kComputeDone, i, 0, 1.0 * i + 0.5});
  }

  std::vector<std::int32_t> out(64);
  connector.dataset_read(ds, h5::Selection::all(),
                         std::as_writable_bytes(std::span<std::int32_t>(out)));
  EXPECT_EQ(out, values);
  connector.close();
}

/// An advisor fed records of a slow PFS, a fast staging copy and one
/// second of compute: warm, and recommending async.
model::ModeAdvisorPtr warm_advisor() {
  auto advisor = std::make_shared<model::ModeAdvisor>();
  for (int i = 1; i <= 6; ++i) {
    vol::IoRecord sync_rec;
    sync_rec.bytes = static_cast<std::uint64_t>(i) * 100000;
    sync_rec.ranks = 1;
    sync_rec.blocking_seconds = static_cast<double>(sync_rec.bytes) / 1e7;  // slow PFS
    sync_rec.completion_seconds = sync_rec.blocking_seconds;
    sync_rec.async = false;
    advisor->on_io(sync_rec);
    auto async_rec = sync_rec;
    async_rec.blocking_seconds = static_cast<double>(sync_rec.bytes) / 1e10;
    async_rec.async = true;
    advisor->on_io(async_rec);
  }
  advisor->record_compute(1.0);
  return advisor;
}

TEST(AdaptiveConnectorTest, SharedAdvisorStartsWarm) {
  // An advisor fed records and a compute sample before the connector
  // exists (a warm start) skips the exploration phase entirely.
  auto advisor = warm_advisor();

  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file, advisor);
  EXPECT_EQ(connector.planned_mode(500000), model::IoMode::kAsync);
  connector.close();
}

/// Keeps every record it is handed.
class RecordingObserver final : public IoObserver {
 public:
  void on_io(const IoRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }
  std::vector<IoRecord> records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<IoRecord> records_;
};

TEST(AdaptiveConnectorTest, ObserversAndRankCountReachBothRoutes) {
  // The router builds no records itself: a subscription must reach both
  // inner connectors, and both must report the issuing thread's world
  // size, whichever route a write takes; a removed observer must hear
  // from neither.
  auto advisor = std::make_shared<model::ModeAdvisor>();
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file, advisor);
  auto observer = std::make_shared<RecordingObserver>();
  const int world = 0;
  debug::ScopedThreadRole rank0(debug::ThreadRole::kPmpiRank, 0, &world, 8);
  connector.add_observer(observer);
  EXPECT_EQ(debug::thread_tag().world_size, 8);

  constexpr std::uint64_t kBytes = 4096;
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {kBytes});
  const std::vector<std::uint8_t> data(kBytes, 7);
  const auto write = [&] {
    connector.dataset_write(ds, h5::Selection::all(),
                            std::as_bytes(std::span<const std::uint8_t>(data)))
        ->wait();
    connector.wait_all();
  };

  // A cold advisor explores sync first.
  ASSERT_EQ(connector.planned_mode(kBytes), model::IoMode::kSync);
  write();
  // A fitted sync model and a compute sample, but no async samples yet:
  // the advisor explores async next.
  for (int i = 1; i <= 6; ++i) {
    IoRecord sample;
    sample.bytes = static_cast<std::uint64_t>(i) * 100000;
    sample.blocking_seconds = static_cast<double>(sample.bytes) / 1e7;
    sample.completion_seconds = sample.blocking_seconds;
    advisor->on_io(sample);
  }
  advisor->record_compute(1.0);
  ASSERT_EQ(connector.planned_mode(kBytes), model::IoMode::kAsync);
  write();

  const auto records = observer->records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].async);
  EXPECT_TRUE(records[1].async);
  for (const auto& r : records) {
    EXPECT_EQ(r.ranks, 8);
    EXPECT_EQ(r.bytes, kBytes);
  }
  const auto stats = connector.adaptive_stats();
  EXPECT_EQ(stats.writes_sync, 1u);
  EXPECT_EQ(stats.writes_async, 1u);

  // After removal neither inner connector reports to it: the prefetch
  // runs on the async one, the flush on the sync one.
  connector.remove_observer(observer);
  write();
  connector.prefetch(ds, h5::Selection::all());
  connector.flush()->wait();
  EXPECT_EQ(observer->records().size(), 2u);
  connector.close();
}

TEST(AdaptiveConnectorTest, SyncWriteWaitsForQueuedAsyncWrites) {
  // A sync-routed write must not overtake async writes still queued in
  // the inner FIFO: the older async bytes would land on top of it.
  auto advisor = warm_advisor();

  // A 4 MiB write at 16 MiB/s holds the stream for 0.25 s, so the
  // second async write is still in the FIFO when the sync one is issued.
  auto file = h5::File::create(slow_pfs(16.0 * kMiB));
  AdaptiveConnector connector(file, advisor);
  constexpr std::uint64_t kBusy = 4 * kMiB;
  constexpr std::uint64_t kSmall = 256 * 1024;
  auto busy = file->root().create_dataset("busy", h5::Datatype::kUInt8, {kBusy});
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {kSmall});
  const std::vector<std::uint8_t> filler(kBusy, 1);
  const std::vector<std::uint8_t> old_bytes(kSmall, 2);
  const std::vector<std::uint8_t> new_bytes(kSmall, 3);

  ASSERT_EQ(connector.planned_mode(kBusy), model::IoMode::kAsync);
  ASSERT_EQ(connector.planned_mode(kSmall), model::IoMode::kAsync);
  connector.dataset_write(busy, h5::Selection::all(),
                          std::as_bytes(std::span<const std::uint8_t>(filler)));
  connector.dataset_write(ds, h5::Selection::all(),
                          std::as_bytes(std::span<const std::uint8_t>(old_bytes)));

  // No compute left to overlap: the advisor now routes writes sync.
  for (int i = 0; i < 64; ++i) advisor->record_compute(0.0);
  ASSERT_EQ(connector.planned_mode(kSmall), model::IoMode::kSync);
  connector
      .dataset_write(ds, h5::Selection::all(),
                     std::as_bytes(std::span<const std::uint8_t>(new_bytes)))
      ->wait();
  connector.wait_all();

  const auto stats = connector.adaptive_stats();
  EXPECT_EQ(stats.writes_async, 2u);
  EXPECT_EQ(stats.writes_sync, 1u);
  EXPECT_EQ(ds.read_vector<std::uint8_t>(h5::Selection::all()), new_bytes);
  connector.close();
}

TEST(AdaptiveConnectorTest, VpicRoutesAsyncFromEpochMarkers) {
  // The VPIC kernel only marks its steps with EpochScope.  The advisor
  // learns t_comp from those markers, and with 0.1 s of compute per
  // step covering a 16 MiB/s drain it must route writes async.
  auto file = h5::File::create(slow_pfs(16.0 * kMiB));
  AdaptiveConnector connector(file);
  workloads::VpicParams params;
  params.particles_per_rank = 4096;
  params.time_steps = 12;
  params.compute_seconds = 0.1;
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    workloads::VpicIoKernel(params).run(connector, comm);
  });
  connector.wait_all();
  EXPECT_GT(connector.advisor()->compute_observations(), 0u);
  EXPECT_GT(connector.adaptive_stats().writes_async, 0u);
  EXPECT_EQ(connector.planned_mode(params.particles_per_rank * sizeof(float)),
            model::IoMode::kAsync);
  connector.close();
}

TEST(AdaptiveConnectorTest, FlushDrainsAsyncQueueFirst) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  AdaptiveConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  connector.dataset_write(ds, h5::Selection::all(),
                          std::as_bytes(std::span<const std::int32_t>(values)));
  auto req = connector.flush();
  req->wait();
  // After flush the data is durable in the (memory) backend via the
  // reopened view.
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), values);
  connector.close();
}

}  // namespace
}  // namespace apio::vol
