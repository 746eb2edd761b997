// Tests for the asynchronous VOL connector — ordering, the
// double-buffer (transactional copy) guarantee, prefetching, error
// propagation, back-pressure and instrumentation.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "obs/metrics.h"
#include "storage/backend_stack.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"

namespace apio::vol {
namespace {

class RecordingObserver : public IoObserver {
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

std::shared_ptr<AsyncConnector> make_connector(AsyncOptions options = {}) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  return std::make_shared<AsyncConnector>(std::move(file), options);
}

/// Connector over a throttled backend: PFS-like delays make overlap and
/// ordering effects observable in wall time.
std::shared_ptr<AsyncConnector> make_slow_connector(double bandwidth,
                                                    double latency = 0.0) {
  storage::ThrottleParams params;
  params.bandwidth = bandwidth;
  params.latency = latency;
  params.time_scale = 1.0;
  auto backend = storage::BackendStack::memory().throttled(params).build();
  auto file = h5::File::create(std::move(backend));
  return std::make_shared<AsyncConnector>(std::move(file));
}

TEST(AsyncConnectorTest, RequiresFile) {
  EXPECT_THROW(AsyncConnector(nullptr), InvalidArgumentError);
}

TEST(AsyncConnectorTest, WriteDataLandsAfterWait) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(values)));
  req->wait();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), values);
  conn->close();
}

TEST(AsyncConnectorTest, WriteReturnsBeforeSlowBackendCompletes) {
  // 1 MiB at 2 MiB/s: the background transfer takes ~0.5 s; the staging
  // copy must return in a small fraction of that.
  auto conn = make_slow_connector(2.0 * 1024 * 1024);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8,
                                                {1024 * 1024});
  std::vector<std::uint8_t> data(1024 * 1024, 7);
  const auto t0 = std::chrono::steady_clock::now();
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::uint8_t>(data)));
  const double issue_time =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(issue_time, 0.25);
  EXPECT_FALSE(req->test());  // still in flight
  req->wait();
  EXPECT_TRUE(req->test());
  conn->close();
}

TEST(AsyncConnectorTest, DoubleBufferAllowsImmediateReuse) {
  auto conn = make_slow_connector(4.0 * 1024 * 1024);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {1024});
  std::vector<std::int32_t> buffer(1024);
  std::iota(buffer.begin(), buffer.end(), 0);
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(buffer)));
  // Clobber the caller buffer immediately — the staged copy must win.
  std::fill(buffer.begin(), buffer.end(), -1);
  req->wait();
  auto stored = ds.read_vector<std::int32_t>(h5::Selection::all());
  for (int i = 0; i < 1024; ++i) EXPECT_EQ(stored[i], i);
  conn->close();
}

TEST(AsyncConnectorTest, OperationsExecuteInFifoOrder) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {1});
  // 50 sequential overwrites; the last one must win.
  for (std::int32_t i = 0; i < 50; ++i) {
    const std::vector<std::int32_t> v{i};
    conn->dataset_write(ds, h5::Selection::all(),
                        std::as_bytes(std::span<const std::int32_t>(v)));
  }
  conn->wait_all();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all())[0], 49);
  conn->close();
}

TEST(AsyncConnectorTest, AsyncReadCompletesIntoCallerBuffer) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {8});
  std::vector<std::int32_t> values{1, 2, 3, 4, 5, 6, 7, 8};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  std::vector<std::int32_t> out(8, 0);
  auto req = conn->dataset_read(ds, h5::Selection::all(),
                                std::as_writable_bytes(std::span<std::int32_t>(out)));
  req->wait();
  EXPECT_EQ(out, values);
  conn->close();
}

TEST(AsyncConnectorTest, PrefetchServesSubsequentRead) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {8});
  std::vector<std::int32_t> values{9, 8, 7, 6, 5, 4, 3, 2};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  conn->prefetch(ds, h5::Selection::all());
  conn->wait_all();

  std::vector<std::int32_t> out(8, 0);
  auto req = conn->dataset_read(ds, h5::Selection::all(),
                                std::as_writable_bytes(std::span<std::int32_t>(out)));
  EXPECT_TRUE(req->test());  // cache hit completes immediately
  EXPECT_EQ(out, values);

  const auto stats = conn->stats();
  EXPECT_EQ(stats.prefetches_enqueued, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  conn->close();
}

TEST(AsyncConnectorTest, PrefetchEntryConsumedOnce) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  conn->prefetch(ds, h5::Selection::all());
  conn->wait_all();

  std::vector<std::int32_t> out(4);
  conn->dataset_read(ds, h5::Selection::all(),
                     std::as_writable_bytes(std::span<std::int32_t>(out)));
  conn->dataset_read(ds, h5::Selection::all(),
                     std::as_writable_bytes(std::span<std::int32_t>(out)));
  conn->wait_all();
  const auto stats = conn->stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  conn->close();
}

TEST(AsyncConnectorTest, DuplicatePrefetchIsCoalesced) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  conn->prefetch(ds, h5::Selection::all());
  conn->prefetch(ds, h5::Selection::all());
  conn->wait_all();
  EXPECT_EQ(conn->stats().prefetches_enqueued, 1u);
  conn->close();
}

TEST(AsyncConnectorTest, DistinctSelectionsCacheSeparately) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {8});
  const std::vector<std::int32_t> values{0, 1, 2, 3, 4, 5, 6, 7};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  conn->prefetch(ds, h5::Selection::offsets({0}, {4}));
  conn->prefetch(ds, h5::Selection::offsets({4}, {4}));
  conn->wait_all();
  EXPECT_EQ(conn->stats().prefetches_enqueued, 2u);

  std::vector<std::int32_t> out(4);
  conn->dataset_read(ds, h5::Selection::offsets({4}, {4}),
                     std::as_writable_bytes(std::span<std::int32_t>(out)));
  EXPECT_EQ(out, (std::vector<std::int32_t>{4, 5, 6, 7}));
  EXPECT_EQ(conn->stats().cache_hits, 1u);
  conn->close();
}

TEST(AsyncConnectorTest, ErrorPropagatesThroughRequest) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  // Wrong buffer size: the failure happens in the background task and
  // must surface on wait(), not crash the stream.
  const std::vector<std::int32_t> bad{1};
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(bad)));
  EXPECT_THROW(req->wait(), InvalidArgumentError);
  EXPECT_TRUE(req->failed());

  // The queue keeps serving later operations.
  const std::vector<std::int32_t> good{1, 2, 3, 4};
  auto ok = conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::int32_t>(good)));
  ok->wait();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), good);
  conn->close();
}

TEST(AsyncConnectorTest, WaitAllDrainsEverything) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {64});
  std::vector<RequestPtr> reqs;
  for (int i = 0; i < 32; ++i) {
    std::vector<std::int32_t> v(2, i);
    reqs.push_back(conn->dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * 2}, {2}),
        std::as_bytes(std::span<const std::int32_t>(v))));
  }
  conn->wait_all();
  for (auto& r : reqs) EXPECT_TRUE(r->test());
  conn->close();
}

TEST(AsyncConnectorTest, StatsTrackStagingVolume) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8, {1000});
  std::vector<std::uint8_t> data(1000, 1);
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::uint8_t>(data)));
  conn->wait_all();
  const auto stats = conn->stats();
  EXPECT_EQ(stats.writes_enqueued, 1u);
  EXPECT_EQ(stats.bytes_staged, 1000u);
  EXPECT_GE(stats.staged_high_watermark, 1000u);
  EXPECT_GE(stats.init_seconds, 0.0);
  conn->close();
  EXPECT_GE(conn->stats().term_seconds, 0.0);
}

TEST(AsyncConnectorTest, BackpressureBoundsStagedBytes) {
  AsyncOptions options;
  options.max_staged_bytes = 64 * 1024;
  storage::ThrottleParams params;
  params.bandwidth = 4.0 * 1024 * 1024;
  params.time_scale = 1.0;
  auto backend = storage::BackendStack::memory().throttled(params).build();
  auto conn = std::make_shared<AsyncConnector>(h5::File::create(backend), options);

  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8,
                                                {32u * 32 * 1024});
  std::vector<std::uint8_t> chunk(32 * 1024, 9);
  for (int i = 0; i < 32; ++i) {
    conn->dataset_write(
        ds,
        h5::Selection::offsets({static_cast<std::uint64_t>(i) * chunk.size()},
                               {chunk.size()}),
        std::as_bytes(std::span<const std::uint8_t>(chunk)));
  }
  conn->wait_all();
  const auto stats = conn->stats();
  // The high-watermark must respect the configured bound (one op may
  // exceed it only when the queue was empty; 2 chunks fit exactly).
  EXPECT_LE(stats.staged_high_watermark, options.max_staged_bytes);
  conn->close();
}

TEST(AsyncConnectorTest, FailedSubmitReturnsStagingBudget) {
  obs::set_enabled(true);
  auto& gauge = obs::Registry::instance().gauge("vol.async.staged_outstanding");
  // A staging device whose first write fails; it heals after that.
  storage::FaultPlan plan;
  plan.fail_writes_after = 0;
  plan.heal_after_faults = 1;
  AsyncOptions options;
  options.max_staged_bytes = 4096;
  options.staging_backend = std::make_shared<storage::FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  auto conn = make_connector(options);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8, {4096});
  const std::vector<std::uint8_t> data(4096, 7);
  const auto bytes = std::as_bytes(std::span<const std::uint8_t>(data));
  const std::int64_t before = gauge.value();

  // Each failure must hand the budget back; asserting here keeps a leak
  // from hanging the full-budget write below.
  EXPECT_THROW(conn->dataset_write(ds, h5::Selection::all(), bytes), IoError);
  ASSERT_EQ(gauge.value(), before);
  // A handle from another container fails the path lookup after the
  // staging copy.
  auto other = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto foreign = other->root().create_dataset("d", h5::Datatype::kUInt8, {4096});
  EXPECT_THROW(conn->dataset_write(foreign, h5::Selection::all(), bytes),
               NotFoundError);
  ASSERT_EQ(gauge.value(), before);

  conn->dataset_write(ds, h5::Selection::all(), bytes)->wait();
  EXPECT_EQ(ds.read_vector<std::uint8_t>(h5::Selection::all()), data);
  EXPECT_EQ(gauge.value(), before);
  conn->close();
  obs::set_enabled(false);
}

TEST(AsyncConnectorTest, UseAfterCloseThrows) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {1});
  conn->close();
  const std::vector<std::int32_t> v{1};
  EXPECT_THROW(conn->dataset_write(ds, h5::Selection::all(),
                                   std::as_bytes(std::span<const std::int32_t>(v))),
               StateError);
  EXPECT_NO_THROW(conn->close());  // idempotent
}

TEST(AsyncConnectorTest, ObserverSeesAsyncTimings) {
  auto conn = make_slow_connector(8.0 * 1024 * 1024, 0.02);
  auto observer = std::make_shared<RecordingObserver>();
  conn->add_observer(observer);
  conn->set_reported_ranks(6);

  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8,
                                                {256 * 1024});
  std::vector<std::uint8_t> data(256 * 1024, 1);
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::uint8_t>(data)));
  conn->wait_all();

  auto records = observer->records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].async);
  EXPECT_EQ(records[0].ranks, 6);
  EXPECT_EQ(records[0].bytes, 256u * 1024);
  // The caller was blocked for only the staging copy — far less than
  // the full completion time on the throttled backend.
  EXPECT_LT(records[0].blocking_seconds, records[0].completion_seconds);
  conn->close();
}

TEST(AsyncConnectorTest, FlushRunsInBackground) {
  auto conn = make_connector();
  conn->file()->root().create_dataset("d", h5::Datatype::kInt8, {1});
  auto req = conn->flush();
  req->wait();
  EXPECT_FALSE(req->failed());
  conn->close();
}

TEST(AsyncConnectorTest, ManyMixedOperationsStressOrdering) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt64, {256});
  std::vector<std::int64_t> out(256);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::int64_t> values(256, round);
    conn->dataset_write(ds, h5::Selection::all(),
                        std::as_bytes(std::span<const std::int64_t>(values)));
    conn->dataset_read(ds, h5::Selection::all(),
                       std::as_writable_bytes(std::span<std::int64_t>(out)));
    conn->flush();
  }
  conn->wait_all();
  // FIFO semantics: the final read observed the final write.
  for (auto v : out) EXPECT_EQ(v, 19);
  conn->close();
}

}  // namespace
}  // namespace apio::vol
