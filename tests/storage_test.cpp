// Unit tests for storage backends and the PFS bandwidth models.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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
  params.shared_channel = true;
  ThrottledBackend throttled(inner, params);
  std::vector<std::byte> data(500, std::byte{1});
  throttled.write(0, data);
  throttled.write(500, data);
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 1.0, 1e-9);
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
