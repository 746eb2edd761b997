// Tests for the asynchronous VOL connector — the Request completion it
// returns, ordering, the double-buffer (transactional copy) guarantee,
// prefetching, error propagation, back-pressure and instrumentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <numeric>
#include <thread>

#include "common/clock.h"
#include "common/debug/thread_role.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "storage/backend_stack.h"
#include "storage/decorator.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/resilient_backend.h"
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

/// Holds every transfer while closed: the op on the stream parks in it,
/// and every op behind that one waits in the connector's FIFO.
class GateBackend final : public storage::Decorator {
 public:
  explicit GateBackend(storage::BackendPtr inner)
      : Decorator(std::move(inner), "gate") {}

  void set_open(bool open) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = open;
    }
    cv_.notify_all();
  }

 private:
  void around(obs::IoOp, std::uint64_t, std::uint64_t, Transfer transfer) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
    }
    transfer();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
};

std::span<const std::byte> bytes_of(const std::vector<std::uint8_t>& v,
                                    std::size_t n) {
  return std::as_bytes(std::span<const std::uint8_t>(v.data(), n));
}

// ---------------------------------------------------------------------------
// Request: the completion every connector op returns

TEST(RequestTest, StartsPending) {
  Request request;
  EXPECT_FALSE(request.test());
  EXPECT_FALSE(request.failed());
  EXPECT_EQ(request.error_category(), "");
}

TEST(RequestTest, CompleteReleasesWait) {
  Request request;
  request.complete();
  EXPECT_TRUE(request.test());
  EXPECT_FALSE(request.failed());
  EXPECT_NO_THROW(request.wait());
}

TEST(RequestTest, MakeReadyIsComplete) {
  obs::IoRecord info;
  info.dataset_path = "/d";
  const RequestPtr request = Request::make_ready(info);
  EXPECT_TRUE(request->test());
  EXPECT_FALSE(request->failed());
  EXPECT_EQ(request->info().dataset_path, "/d");
}

TEST(RequestTest, ErrorRethrownByWaitButNotByEventualWait) {
  const auto request = std::make_shared<Request>();
  request->complete(std::make_exception_ptr(IoError("disk on fire")));
  EXPECT_TRUE(request->test());
  EXPECT_TRUE(request->failed());
  EXPECT_EQ(request->error_category(), "io");
  EXPECT_NE(request->error_message().find("disk on fire"), std::string::npos);
  EXPECT_NO_THROW(request->eventual()->wait_ignore_error());
  EXPECT_THROW(request->wait(), IoError);
}

TEST(RequestTest, WaitWakesWhenCompletedFromAnotherThread) {
  Request request;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    request.wait();
    woke = true;
  });
  EXPECT_FALSE(woke.load());  // nothing can release it before complete()
  request.complete();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_TRUE(request.test());
}

TEST(RequestTest, WaiterMayDropTheLastReferenceAsSoonAsWaitReturns) {
  // The completer holds its own reference across complete(), so a
  // waiter that frees the request the moment wait() returns never races
  // the completer's wake-up.
  constexpr int kRequests = 10000;
  std::vector<RequestPtr> requests;
  requests.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) requests.push_back(std::make_shared<Request>());
  std::vector<RequestPtr> waiting = requests;  // the waiter's references
  std::thread waiter([&] {
    for (RequestPtr& request : waiting) {
      request->wait();
      request.reset();
    }
  });
  for (RequestPtr& request : requests) {
    const RequestPtr held = std::move(request);
    held->complete();
  }
  waiter.join();
  for (const RequestPtr& request : waiting) EXPECT_EQ(request, nullptr);
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

TEST(AsyncConnectorTest, SuccessorsWaitOutARetriedOp) {
  // gate(resilient(faulty(memory))): the gate holds the head write until
  // all eight successors are queued behind it; then its first two
  // attempts fault, and the resilient layer retries it inline on the
  // connector's stream.
  auto faulty = std::make_shared<storage::FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), storage::FaultPlan{});
  ManualClock manual;
  storage::ResilienceOptions resilience_options;
  resilience_options.retry.max_attempts = 3;
  resilience_options.breaker.failure_threshold = 0;
  auto resilient = std::make_shared<storage::ResilientBackend>(
      faulty, resilience_options, &manual, &manual);
  auto gate = std::make_shared<GateBackend>(resilient);
  auto file = h5::File::create(gate);
  constexpr std::int32_t kWrites = 9;
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {kWrites});
  storage::FaultPlan plan;
  plan.fail_writes_after = 0;
  plan.transient = true;
  plan.heal_after_faults = 2;
  faulty->set_plan(plan);

  AsyncConnector conn(file);
  auto observer = std::make_shared<RecordingObserver>();
  conn.add_observer(observer);

  // Write i covers elements [0, i] with the value i, so its record's
  // byte count names it and element 0 ends with the last write's value.
  gate->set_open(false);
  std::vector<RequestPtr> requests;
  for (std::int32_t i = 0; i < kWrites; ++i) {
    const std::vector<std::int32_t> v(static_cast<std::size_t>(i) + 1, i);
    requests.push_back(conn.dataset_write(
        ds, h5::Selection::offsets({0}, {v.size()}),
        std::as_bytes(std::span<const std::int32_t>(v))));
  }
  gate->set_open(true);
  conn.wait_all();

  EXPECT_EQ(resilient->retries(), 2u);
  EXPECT_EQ(faulty->faults_injected(), 2u);
  EXPECT_EQ(manual.sleep_count(), 2u);
  const auto records = observer->records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kWrites));
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].bytes, (i + 1) * sizeof(std::int32_t)) << "completion " << i;
  }
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all())[0], kWrites - 1);
  EXPECT_EQ(conn.stats().failed_ops, 0u);
  conn.close();
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
  // Issued as rank 0 of a 6-rank world: records carry its size.
  const int world = 0;
  debug::ScopedThreadRole rank0(debug::ThreadRole::kPmpiRank, 0, &world, 6);

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

TEST(AsyncConnectorTest, ConcurrentDuplicatePrefetchesSubmitOnce) {
  constexpr int kRounds = 50;
  constexpr std::uint64_t kSelections = 64;
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32,
                                                {kSelections * 4});
  std::vector<std::int32_t> values(kSelections * 4);
  std::iota(values.begin(), values.end(), 0);
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)))
      ->wait();
  std::vector<h5::Selection> selections;
  for (std::uint64_t i = 0; i < kSelections; ++i) {
    selections.push_back(h5::Selection::offsets({i * 4}, {4}));
  }

  std::uint64_t extra_submissions = 0;
  std::uint64_t misses = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t before = conn->stats().prefetches_enqueued;
    std::barrier start(2);
    auto prefetch_all = [&] {
      start.arrive_and_wait();
      for (const auto& selection : selections) conn->prefetch(ds, selection);
    };
    std::thread a(prefetch_all);
    std::thread b(prefetch_all);
    a.join();
    b.join();
    extra_submissions += conn->stats().prefetches_enqueued - before - kSelections;

    std::vector<std::int32_t> out(4);
    for (std::uint64_t i = 0; i < kSelections; ++i) {
      auto req = conn->dataset_read(ds, selections[i],
                                    std::as_writable_bytes(std::span<std::int32_t>(out)));
      if (!req->test()) ++misses;
      req->wait();
      ASSERT_EQ(out[0], static_cast<std::int32_t>(i * 4));
    }
  }
  EXPECT_EQ(extra_submissions, 0u);
  EXPECT_EQ(misses, 0u);
  const auto stats = conn->stats();
  EXPECT_EQ(stats.prefetches_enqueued, kRounds * kSelections);
  EXPECT_EQ(stats.cache_hits, kRounds * kSelections);
  conn->close();
}

TEST(AsyncConnectorTest, FailedPrefetchUnpublishesItsEntry) {
  auto conn = make_connector();
  auto other = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto foreign = other->root().create_dataset("d", h5::Datatype::kInt32, {4});
  // The path lookup fails after the cache entry was reserved; a retry
  // must fail the same way, not pass as a duplicate of a dead entry.
  EXPECT_THROW(conn->prefetch(foreign, h5::Selection::all()), NotFoundError);
  EXPECT_THROW(conn->prefetch(foreign, h5::Selection::all()), NotFoundError);
  EXPECT_EQ(conn->stats().prefetches_enqueued, 0u);
  conn->close();
}

/// Writes of mixed sizes, growing and shrinking, all from one source
/// buffer the caller clobbers as soon as each dataset_write returns.
/// Every other write is waited for, so finished staging buffers go back
/// to the recycler and later writes of the same size reuse them.
void expect_recycled_staging_keeps_double_buffer(AsyncOptions options) {
  const std::vector<std::size_t> sizes{64, 4096, 256, 65536, 16, 4096, 65536, 64, 1000, 256};
  constexpr int kRounds = 8;
  auto conn = make_connector(std::move(options));
  std::vector<std::uint8_t> source(65536);
  std::vector<h5::Dataset> datasets;
  std::vector<std::vector<std::uint8_t>> expected;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t n = sizes[i];
      const std::size_t id = datasets.size();
      datasets.push_back(conn->file()->root().create_dataset(
          "d" + std::to_string(id), h5::Datatype::kUInt8, {n}));
      for (std::size_t b = 0; b < n; ++b) {
        source[b] = static_cast<std::uint8_t>(id * 31 + b * 7);
      }
      expected.emplace_back(source.begin(), source.begin() + static_cast<std::ptrdiff_t>(n));
      auto req = conn->dataset_write(datasets.back(), h5::Selection::all(),
                                     bytes_of(source, n));
      std::fill(source.begin(), source.end(), std::uint8_t{0xEE});
      if (i % 2 == 1) req->wait();
    }
  }
  conn->wait_all();
  for (std::size_t j = 0; j < datasets.size(); ++j) {
    ASSERT_EQ(datasets[j].read_vector<std::uint8_t>(h5::Selection::all()), expected[j])
        << "dataset " << j;
  }
  EXPECT_EQ(conn->stats().failed_ops, 0u);
  conn->close();
}

TEST(AsyncConnectorTest, RecycledStagingKeepsDoubleBufferGuarantee) {
  expect_recycled_staging_keeps_double_buffer({});
}

TEST(AsyncConnectorTest, RecycledDeviceStagingKeepsDoubleBufferGuarantee) {
  AsyncOptions options;
  options.staging_backend = std::make_shared<storage::MemoryBackend>();
  expect_recycled_staging_keeps_double_buffer(options);
}

TEST(AsyncConnectorTest, PrefetchIntoRecycledBufferReturnsExactSelection) {
  auto conn = make_connector();
  auto root = conn->file()->root();
  auto filler = root.create_dataset("filler", h5::Datatype::kUInt8, {4096});
  auto data = root.create_dataset("data", h5::Datatype::kUInt8, {4096});
  std::vector<std::uint8_t> pattern(4096);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  conn->dataset_write(data, h5::Selection::all(), bytes_of(pattern, pattern.size()))
      ->wait();
  // Leaves 4 KiB staging buffers full of 0xAA on the free list.
  const std::vector<std::uint8_t> stale(4096, 0xAA);
  for (int i = 0; i < 4; ++i) {
    conn->dataset_write(filler, h5::Selection::all(), bytes_of(stale, stale.size()))
        ->wait();
  }
  conn->prefetch(data, h5::Selection::all());
  conn->prefetch(data, h5::Selection::offsets({100}, {1000}));
  conn->wait_all();

  std::vector<std::uint8_t> full(4096, 0);
  EXPECT_TRUE(conn->dataset_read(data, h5::Selection::all(),
                                 std::as_writable_bytes(std::span<std::uint8_t>(full)))
                  ->test());
  EXPECT_EQ(full, pattern);
  // The part read fills exactly its 1000 bytes; the guard past it stays.
  std::vector<std::uint8_t> part(1000 + 16, 0x55);
  EXPECT_TRUE(conn->dataset_read(data, h5::Selection::offsets({100}, {1000}),
                                 std::as_writable_bytes(
                                     std::span<std::uint8_t>(part.data(), 1000)))
                  ->test());
  EXPECT_TRUE(std::equal(part.begin(), part.begin() + 1000, pattern.begin() + 100));
  EXPECT_TRUE(std::all_of(part.begin() + 1000, part.end(),
                          [](std::uint8_t b) { return b == 0x55; }));
  EXPECT_EQ(conn->stats().cache_hits, 2u);
  conn->close();
}

TEST(HandleLifetimeTest, AsyncWriteToRemovedDatasetFailsWithStateError) {
  auto gate = std::make_shared<GateBackend>(std::make_shared<storage::MemoryBackend>());
  auto conn = std::make_shared<AsyncConnector>(h5::File::create(gate));
  auto root = conn->file()->root();
  auto first = root.create_dataset("first", h5::Datatype::kInt32, {4});
  auto doomed = root.create_dataset("doomed", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  const auto bytes = std::as_bytes(std::span<const std::int32_t>(values));

  gate->set_open(false);
  auto head = conn->dataset_write(first, h5::Selection::all(), bytes);
  auto queued = conn->dataset_write(doomed, h5::Selection::all(), bytes);
  root.remove("doomed");  // while `queued` waits behind the gated head
  gate->set_open(true);

  head->wait();
  EXPECT_THROW(queued->wait(), StateError);
  EXPECT_EQ(queued->error_category(), "state");
  EXPECT_EQ(queued->info().dataset_path, "doomed");

  // The connector keeps serving later ops.
  auto later = root.create_dataset("later", h5::Datatype::kInt32, {4});
  conn->dataset_write(later, h5::Selection::all(), bytes)->wait();
  EXPECT_EQ(later.read_vector<std::int32_t>(h5::Selection::all()), values);
  EXPECT_EQ(first.read_vector<std::int32_t>(h5::Selection::all()), values);
  EXPECT_EQ(conn->stats().failed_ops, 1u);
  conn->close();
}

TEST(PathIndexTest, FailedAsyncWriteCarriesPathAmong2kDatasets) {
  auto conn = make_connector();
  h5::Dataset target;
  for (int g = 0; g < 8; ++g) {
    auto group = conn->file()->root().create_group("g" + std::to_string(g));
    for (int s = 0; s < 4; ++s) {
      auto sub = group.create_group("s" + std::to_string(s));
      for (int d = 0; d < 64; ++d) {
        auto ds = sub.create_dataset("d" + std::to_string(d), h5::Datatype::kInt32, {4});
        if (g == 5 && s == 2 && d == 41) target = ds;
      }
    }
  }
  // Wrong buffer size: the write fails on the stream.
  const std::vector<std::int32_t> bad{1};
  auto req = conn->dataset_write(target, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(bad)));
  EXPECT_THROW(req->wait(), InvalidArgumentError);
  EXPECT_EQ(req->info().dataset_path, "g5/s2/d41");
  EXPECT_EQ(req->info().op, obs::IoOp::kWrite);
  conn->close();
}

}  // namespace
}  // namespace apio::vol
