// Tests for the VOL extensions: event sets (H5ES semantics), the trace
// recorder attached as an observer, SSD-staged transactional copies,
// and the IoRecord each connector reports per operation.
#include <gtest/gtest.h>

#include <numeric>

#include "common/debug/thread_role.h"
#include "common/error.h"
#include "model/advisor.h"
#include "obs/trace_context.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/adaptive_connector.h"
#include "vol/async_connector.h"
#include "vol/event_set.h"
#include "vol/native_connector.h"
#include "vol/trace.h"

namespace apio::vol {
namespace {

std::shared_ptr<AsyncConnector> make_async(AsyncOptions options = {}) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  return std::make_shared<AsyncConnector>(std::move(file), options);
}

/// Keeps every record and asks for the dataset path and selection.
class DetailObserver final : public IoObserver {
 public:
  void on_io(const IoRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }
  bool wants_detail() const override { return true; }
  std::vector<IoRecord> records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<IoRecord> records_;
};

// ---------------------------------------------------------------------------
// EventSet

TEST(EventSetTest, EmptySetIsComplete) {
  EventSet es;
  EXPECT_EQ(es.size(), 0u);
  EXPECT_TRUE(es.test());
  EXPECT_NO_THROW(es.wait());
  EXPECT_EQ(es.num_errors(), 0u);
}

TEST(EventSetTest, TracksBatchOfWrites) {
  auto conn = make_async();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {80});
  EventSet es;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::int32_t> v(8, i);
    es.insert(conn->dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * 8}, {8}),
        std::as_bytes(std::span<const std::int32_t>(v))));
  }
  EXPECT_EQ(es.size(), 10u);
  es.wait();
  EXPECT_EQ(es.size(), 0u);
  EXPECT_EQ(es.num_errors(), 0u);
  auto all = ds.read_vector<std::int32_t>(h5::Selection::all());
  EXPECT_EQ(all[79], 9);
  conn->close();
}

TEST(EventSetTest, CollectsErrorsWithoutThrowing) {
  auto conn = make_async();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  EventSet es;
  const std::vector<std::int32_t> good{1, 2, 3, 4};
  const std::vector<std::int32_t> bad{1};
  es.insert(conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::int32_t>(good))));
  es.insert(conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::int32_t>(bad))));
  EXPECT_NO_THROW(es.wait());  // H5ESwait does not throw
  EXPECT_EQ(es.num_errors(), 1u);
  const auto messages = es.error_messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("selection bytes"), std::string::npos);
  EXPECT_THROW(es.rethrow_first_error(), InvalidArgumentError);
  es.clear();
  EXPECT_EQ(es.num_errors(), 0u);
  conn->close();
}

TEST(EventSetTest, TestReflectsInFlightWork) {
  storage::ThrottleParams throttle;
  throttle.bandwidth = 2.0 * 1024 * 1024;
  throttle.time_scale = 1.0;
  auto backend = storage::BackendStack::memory().throttled(throttle).build();
  auto conn = std::make_shared<AsyncConnector>(h5::File::create(backend));
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8,
                                                {512 * 1024});
  std::vector<std::uint8_t> data(512 * 1024, 1);
  EventSet es;
  es.insert(conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::uint8_t>(data))));
  EXPECT_FALSE(es.test());  // ~0.25 s transfer still in flight
  es.wait();
  EXPECT_TRUE(es.test());
  conn->close();
}

TEST(EventSetTest, RejectsNullRequest) {
  EventSet es;
  EXPECT_THROW(es.insert(nullptr), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// TraceRecorder attached to a connector

/// One Connector call of each kind on `conn`, over dataset "d" of 16
/// doubles; reads back into `out`.
void drive_every_op(Connector& conn, h5::Dataset ds, const std::vector<double>& values,
                    std::vector<double>& out) {
  conn.dataset_write(ds, h5::Selection::all(),
                     std::as_bytes(std::span<const double>(values)))
      ->wait();
  conn.dataset_read(ds, h5::Selection::all(),
                    std::as_writable_bytes(std::span<double>(out)))
      ->wait();
  conn.prefetch(ds, h5::Selection::all());
  conn.flush()->wait();
  conn.wait_all();
}

struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  bool operator==(const Tally&) const = default;
};

/// Events of `kind` in `trace` and their summed bytes.
Tally tally(const Trace& trace, IoOp kind) {
  Tally t;
  for (const auto& e : trace.events()) {
    if (e.op != kind) continue;
    ++t.ops;
    t.bytes += e.bytes;
  }
  return t;
}

/// What drive_every_op leaves in a recorder's trace: one op of each
/// kind, 128 B each way, and some caller-visible blocking.
void expect_one_of_each(const Trace& trace) {
  EXPECT_EQ(tally(trace, IoOp::kWrite), (Tally{1, 128}));
  EXPECT_EQ(tally(trace, IoOp::kRead), (Tally{1, 128}));
  EXPECT_EQ(tally(trace, IoOp::kPrefetch).ops, 1u);
  EXPECT_EQ(tally(trace, IoOp::kFlush).ops, 1u);
  const IoProfile profile(trace);
  EXPECT_EQ(profile.total_operations(), 4u);
  EXPECT_GT(profile.per_dataset().at("d").blocking_seconds, 0.0);
}

TEST(TraceRecorderTest, CountsEveryOpKindOnAsync) {
  // The recorder counts from the IoRecord stream the connector emits.
  auto conn = make_async();
  auto recorder = std::make_shared<TraceRecorder>();
  conn->add_observer(recorder);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kFloat64, {16});
  std::vector<double> values(16);
  std::iota(values.begin(), values.end(), 0.0);
  std::vector<double> out(16);
  drive_every_op(*conn, ds, values, out);

  expect_one_of_each(recorder->trace());
  EXPECT_EQ(out, values);
  conn->close();
}

TEST(TraceRecorderTest, CountsEveryOpKindOnNative) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  NativeConnector conn(file);
  auto recorder = std::make_shared<TraceRecorder>();
  conn.add_observer(recorder);
  auto ds = file->root().create_dataset("d", h5::Datatype::kFloat64, {16});
  std::vector<double> values(16, 2.5);
  std::vector<double> out(16);
  drive_every_op(conn, ds, values, out);

  expect_one_of_each(recorder->trace());
  EXPECT_EQ(out, values);
}

TEST(TraceRecorderTest, TwoRecordersOnOneConnectorBothRecord) {
  auto conn = make_async();
  auto first = std::make_shared<TraceRecorder>();
  auto second = std::make_shared<TraceRecorder>();
  conn->add_observer(first);
  conn->add_observer(second);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt8, {2});
  const std::vector<std::int8_t> v{9, 9};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int8_t>(v)));
  conn->wait_all();
  EXPECT_EQ(tally(first->trace(), IoOp::kWrite), (Tally{1, 2}));
  EXPECT_EQ(tally(second->trace(), IoOp::kWrite), (Tally{1, 2}));
  conn->close();
}

// ---------------------------------------------------------------------------
// SSD-staged transactional copies

TEST(SsdStagingTest, WritesLandViaStagingDevice) {
  AsyncOptions options;
  auto ssd = std::make_shared<storage::MemoryBackend>();  // stands in for NVMe
  options.staging_backend = ssd;
  auto conn = make_async(options);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {64});
  std::vector<std::int32_t> values(64);
  std::iota(values.begin(), values.end(), 100);
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(values)));
  req->wait();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), values);
  // The staging device really carried the bytes.
  EXPECT_GE(ssd->stats().bytes_written, 64u * sizeof(std::int32_t));
  EXPECT_GE(ssd->stats().bytes_read, 64u * sizeof(std::int32_t));
  conn->close();
}

TEST(SsdStagingTest, CallerBufferReusableImmediately) {
  AsyncOptions options;
  options.staging_backend = std::make_shared<storage::MemoryBackend>();
  storage::ThrottleParams throttle;
  throttle.bandwidth = 4.0 * 1024 * 1024;
  throttle.time_scale = 1.0;
  auto pfs = storage::BackendStack::memory().throttled(throttle).build();
  auto conn = std::make_shared<AsyncConnector>(h5::File::create(pfs), options);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {1024});
  std::vector<std::int32_t> buffer(1024);
  std::iota(buffer.begin(), buffer.end(), 0);
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(buffer)));
  std::fill(buffer.begin(), buffer.end(), -1);  // clobber immediately
  req->wait();
  auto stored = ds.read_vector<std::int32_t>(h5::Selection::all());
  for (int i = 0; i < 1024; ++i) EXPECT_EQ(stored[i], i);
  conn->close();
}

TEST(SsdStagingTest, SequentialWritesUseDistinctRegions) {
  AsyncOptions options;
  auto ssd = std::make_shared<storage::MemoryBackend>();
  options.staging_backend = ssd;
  auto conn = make_async(options);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {8});
  for (std::int32_t round = 0; round < 4; ++round) {
    std::vector<std::int32_t> v(8, round);
    conn->dataset_write(ds, h5::Selection::all(),
                        std::as_bytes(std::span<const std::int32_t>(v)));
  }
  conn->wait_all();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all())[0], 3);
  // Bump allocation: 4 writes x 32 bytes on the device.
  EXPECT_EQ(ssd->size(), 4u * 32);
  conn->close();
}

// ---------------------------------------------------------------------------
// IoRecord contract: the fields each connector reports per operation

/// Traces every request (sampling period 1) for the test's lifetime.
class IoRecordContractTest : public testing::Test {
 protected:
  void SetUp() override {
    auto& collector = obs::trace::TraceCollector::instance();
    collector.clear();
    collector.set_sampling_period(1);
    collector.set_enabled(true);
  }
  void TearDown() override {
    auto& collector = obs::trace::TraceCollector::instance();
    collector.set_enabled(false);
    collector.clear();
  }
};

/// Tags the test thread as rank 0 of a 3-rank world, so every record it
/// issues reports ranks == 3.
struct ThreeRankWorld {
  debug::ScopedThreadRole rank0{debug::ThreadRole::kPmpiRank, 0, this, 3};
};

/// The fields every record carries: kind, payload, async flag, cache
/// hit, rank count and a non-negative caller-blocking time.
void expect_record(const IoRecord& r, IoOp op, std::uint64_t bytes, bool async,
                   bool cache_hit = false) {
  EXPECT_EQ(r.op, op);
  EXPECT_EQ(r.bytes, bytes);
  EXPECT_EQ(r.async, async);
  EXPECT_EQ(r.cache_hit, cache_hit);
  EXPECT_EQ(r.ranks, 3);
  EXPECT_GE(r.blocking_seconds, 0.0);
}

void expect_detail(const IoRecord& r) {
  EXPECT_EQ(r.dataset_path, "d");
  EXPECT_EQ(r.selection, "all");
}

void expect_traced(const IoRecord& r) {
  EXPECT_NE(r.trace_id, 0u);
  EXPECT_NE(r.span_id, 0u);
}

TEST_F(IoRecordContractTest, AsyncConnectorReportsOneRecordPerOp) {
  auto conn = make_async();
  auto observer = std::make_shared<DetailObserver>();
  conn->add_observer(observer);
  const ThreeRankWorld world;
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8, {64});
  const std::vector<std::uint8_t> data(64, 5);
  std::vector<std::uint8_t> out(64);
  const auto out_bytes = std::as_writable_bytes(std::span<std::uint8_t>(out));

  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::uint8_t>(data)))
      ->wait();
  conn->dataset_read(ds, h5::Selection::all(), out_bytes)->wait();  // miss
  conn->prefetch(ds, h5::Selection::all());
  conn->wait_all();
  conn->dataset_read(ds, h5::Selection::all(), out_bytes)->wait();  // hit
  conn->flush()->wait();

  const auto records = observer->records();
  ASSERT_EQ(records.size(), 5u);
  const IoRecord& write = records[0];
  expect_record(write, IoOp::kWrite, 64, true);
  expect_detail(write);
  expect_traced(write);
  // The caller blocked for the staging copy only.
  EXPECT_LE(write.blocking_seconds, write.completion_seconds);

  const IoRecord& miss = records[1];
  expect_record(miss, IoOp::kRead, 64, true);
  expect_detail(miss);
  expect_traced(miss);
  EXPECT_EQ(miss.blocking_seconds, 0.0);
  EXPECT_GT(miss.completion_seconds, 0.0);

  // Reported at issue: blocking covers the enqueue, no completion yet.
  const IoRecord& prefetch = records[2];
  expect_record(prefetch, IoOp::kPrefetch, 64, true);
  expect_detail(prefetch);
  EXPECT_EQ(prefetch.completion_seconds, 0.0);

  const IoRecord& hit = records[3];
  expect_record(hit, IoOp::kRead, 64, true, /*cache_hit=*/true);
  expect_detail(hit);
  EXPECT_LE(hit.blocking_seconds, hit.completion_seconds);

  const IoRecord& flush = records[4];
  expect_record(flush, IoOp::kFlush, 0, true);
  expect_traced(flush);
  EXPECT_EQ(flush.blocking_seconds, 0.0);
  EXPECT_TRUE(flush.dataset_path.empty());
  conn->close();
}

TEST_F(IoRecordContractTest, NativeConnectorReportsOneRecordPerOp) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  NativeConnector conn(file);
  auto observer = std::make_shared<DetailObserver>();
  conn.add_observer(observer);
  const ThreeRankWorld world;
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});
  const std::vector<std::uint8_t> data(64, 5);
  std::vector<std::uint8_t> out(64);

  conn.dataset_write(ds, h5::Selection::all(),
                     std::as_bytes(std::span<const std::uint8_t>(data)));
  conn.dataset_read(ds, h5::Selection::all(),
                    std::as_writable_bytes(std::span<std::uint8_t>(out)));
  conn.prefetch(ds, h5::Selection::all());
  conn.flush();

  const auto records = observer->records();
  ASSERT_EQ(records.size(), 4u);
  const IoOp ops[] = {IoOp::kWrite, IoOp::kRead, IoOp::kPrefetch, IoOp::kFlush};
  for (std::size_t i = 0; i < records.size(); ++i) {
    const IoRecord& r = records[i];
    expect_record(r, ops[i], ops[i] == IoOp::kFlush ? 0 : 64, false);
    // Synchronous calls complete when they return.
    EXPECT_EQ(r.blocking_seconds, r.completion_seconds);
    if (ops[i] == IoOp::kFlush) {
      EXPECT_TRUE(r.dataset_path.empty());
    } else {
      expect_detail(r);
    }
  }
  EXPECT_EQ(records[2].blocking_seconds, 0.0);  // a hint, nothing moved
}

TEST_F(IoRecordContractTest, FailedOpsReportNoRecord) {
  // A buffer that does not match the selection fails the transfer.
  const std::vector<std::uint8_t> bad(3, 1);
  const auto bad_bytes = std::as_bytes(std::span<const std::uint8_t>(bad));

  auto async = make_async();
  auto async_observer = std::make_shared<DetailObserver>();
  async->add_observer(async_observer);
  auto ds = async->file()->root().create_dataset("d", h5::Datatype::kUInt8, {64});
  auto req = async->dataset_write(ds, h5::Selection::all(), bad_bytes);
  EXPECT_THROW(req->wait(), InvalidArgumentError);
  async->close();
  EXPECT_TRUE(async_observer->records().empty());

  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  NativeConnector native(file);
  auto native_observer = std::make_shared<DetailObserver>();
  native.add_observer(native_observer);
  auto nds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});
  EXPECT_THROW(native.dataset_write(nds, h5::Selection::all(), bad_bytes),
               InvalidArgumentError);
  EXPECT_TRUE(native_observer->records().empty());
}

}  // namespace
}  // namespace apio::vol
