// Tests for the virtual-cluster simulator: GPU link model, contention,
// system specs and the epoch simulator's pipeline semantics.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/stats.h"
#include "common/units.h"
#include "model/epoch_model.h"
#include "sim/contention.h"
#include "sim/epoch_sim.h"
#include "sim/gpu_link_model.h"
#include "sim/system_spec.h"

namespace apio::sim {
namespace {

using model::IoMode;

// ---------------------------------------------------------------------------
// GpuLinkModel (Sec. III-B1 micro-benchmark behaviours)

TEST(GpuLinkModelTest, PinnedApproachesTheoreticalPeakForLargeTransfers) {
  auto link = GpuLinkModel::nvlink2();
  const double bw = link.achieved_bandwidth(256ull * kMiB, /*pinned=*/true);
  EXPECT_GT(bw, 0.9 * link.peak_bandwidth());
}

TEST(GpuLinkModelTest, PageableIsSlowerThanPinned) {
  auto link = GpuLinkModel::nvlink2();
  const std::uint64_t bytes = 64ull * kMiB;
  EXPECT_GT(link.achieved_bandwidth(bytes, true),
            1.5 * link.achieved_bandwidth(bytes, false));
}

TEST(GpuLinkModelTest, CostAmortizedAboveTenMegabytes) {
  auto link = GpuLinkModel::nvlink2();
  const double bw10 = link.achieved_bandwidth(10ull * 1000 * 1000, true);
  const double bw100 = link.achieved_bandwidth(100ull * 1000 * 1000, true);
  EXPECT_NEAR(bw100 / bw10, 1.0, 0.20);  // flat above the knee
  const double bw_small = link.achieved_bandwidth(64ull * kKiB, true);
  EXPECT_LT(bw_small, 0.3 * bw10);  // setup dominates small transfers
}

TEST(GpuLinkModelTest, Pcie3SlowerThanNvlink) {
  const std::uint64_t bytes = 64ull * kMiB;
  EXPECT_GT(GpuLinkModel::nvlink2().achieved_bandwidth(bytes, true),
            2.0 * GpuLinkModel::pcie3().achieved_bandwidth(bytes, true));
}

TEST(GpuLinkModelTest, RejectsBadConfig) {
  EXPECT_THROW(GpuLinkModel(0.0, 1.0, 1.0, 0.0), InvalidArgumentError);
  EXPECT_THROW(GpuLinkModel(1.0, 2.0, 1.0, 0.0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// ContentionModel (Fig. 8 machinery)

TEST(ContentionTest, NoneAlwaysUnity) {
  auto none = ContentionModel::none();
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(none.sample_run_factor(rng), 1.0);
}

TEST(ContentionTest, FactorsBoundedAndVaried) {
  ContentionModel model(0.3, 0.15);
  Rng rng(42);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double f = model.sample_run_factor(rng);
    EXPECT_GT(f, 0.14);
    EXPECT_LE(f, 1.0);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  EXPECT_LT(lo, 0.8);   // real spread
  EXPECT_GT(hi, 0.95);  // good runs exist
}

TEST(ContentionTest, DeterministicInSeed) {
  ContentionModel model(0.3, 0.15);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(model.sample_run_factor(a), model.sample_run_factor(b));
  }
}

TEST(ContentionTest, RejectsBadParams) {
  EXPECT_THROW(ContentionModel(-0.1, 0.5), InvalidArgumentError);
  EXPECT_THROW(ContentionModel(0.1, 0.0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// SystemSpec

TEST(SystemSpecTest, PaperLaunchConfigurations) {
  const auto summit = SystemSpec::summit();
  EXPECT_EQ(summit.ranks_per_node, 6);
  EXPECT_TRUE(summit.has_gpus);
  EXPECT_EQ(summit.max_nodes, 4608);

  const auto cori = SystemSpec::cori_haswell();
  EXPECT_EQ(cori.ranks_per_node, 32);
  EXPECT_FALSE(cori.has_gpus);
  EXPECT_EQ(cori.max_nodes, 2388);
}

// ---------------------------------------------------------------------------
// EpochSimulator

RunConfig base_config(IoMode mode, int nodes, std::uint64_t bytes,
                      double compute = 30.0) {
  RunConfig config;
  config.nodes = nodes;
  config.mode = mode;
  config.iterations = 5;
  config.compute_seconds = compute;
  config.bytes_per_epoch = bytes;
  config.io_kind = storage::IoKind::kWrite;
  config.contention_sigma_override = 0.0;  // deterministic unless testing Fig. 8
  return config;
}

TEST(EpochSimTest, SyncEpochBandwidthMatchesPfsModel) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  const int nodes = 16;
  const std::uint64_t bytes = 10ull * kGiB;
  const auto result = simulator.run(base_config(IoMode::kSync, nodes, bytes));
  const double expected =
      spec.pfs.aggregate_bandwidth(bytes, nodes * 6, nodes, storage::IoKind::kWrite);
  ASSERT_EQ(result.epochs.size(), 5u);
  for (const auto& epoch : result.epochs) {
    EXPECT_NEAR(epoch.bandwidth, expected, expected * 1e-9);
    EXPECT_DOUBLE_EQ(epoch.io_blocking_seconds, epoch.io_completion_seconds);
  }
}

TEST(EpochSimTest, AsyncBlockingIsOnlyStagingWhenComputeCovers) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  const int nodes = 8;
  const std::uint64_t bytes = 4ull * kGiB;
  // 30 s compute easily covers the background transfer.
  const auto result = simulator.run(base_config(IoMode::kAsync, nodes, bytes));
  const double staging = spec.staging.transact_seconds(bytes, nodes * 6, nodes);
  for (const auto& epoch : result.epochs) {
    EXPECT_NEAR(epoch.io_blocking_seconds, staging, staging * 1e-9);
    EXPECT_GT(epoch.io_completion_seconds, epoch.io_blocking_seconds);
  }
}

TEST(EpochSimTest, AsyncBandwidthOrdersOfMagnitudeAboveSyncWhenOverlapped) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  const int nodes = 128;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nodes) * 6 * 32 * kMiB * 8;
  const auto sync = simulator.run(base_config(IoMode::kSync, nodes, bytes));
  const auto async = simulator.run(base_config(IoMode::kAsync, nodes, bytes));
  EXPECT_GT(async.peak_bandwidth(), 5.0 * sync.peak_bandwidth());
}

TEST(EpochSimTest, AsyncWeakScalingIsLinearInNodes) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  const std::uint64_t per_node = 6ull * 256 * kMiB;
  const auto at = [&](int nodes) {
    return simulator
        .run(base_config(IoMode::kAsync, nodes, per_node * static_cast<unsigned>(nodes)))
        .peak_bandwidth();
  };
  const double bw32 = at(32);
  const double bw256 = at(256);
  EXPECT_NEAR(bw256 / bw32, 8.0, 0.5);
}

TEST(EpochSimTest, SyncWeakScalingSaturates) {
  const auto spec = SystemSpec::cori_haswell();
  EpochSimulator simulator(spec);
  const std::uint64_t per_rank = 32ull * kMiB;
  const auto at = [&](int nodes) {
    const std::uint64_t bytes = per_rank * static_cast<unsigned>(nodes) * 32;
    return simulator.run(base_config(IoMode::kSync, nodes, bytes)).peak_bandwidth();
  };
  const double bw8 = at(8);
  const double bw64 = at(64);
  const double bw256 = at(256);
  EXPECT_GT(bw64, 1.5 * bw8);          // still scaling at small node counts
  EXPECT_LT(bw256 / bw64, 1.5);        // saturated past ~32 nodes
  EXPECT_LE(bw256, spec.pfs.params().aggregate_cap * 1.2);
}

TEST(EpochSimTest, BackPressureSurfacesWhenComputeTooShort) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  const int nodes = 4;
  const std::uint64_t bytes = 64ull * kGiB;  // slow background transfers
  auto config = base_config(IoMode::kAsync, nodes, bytes, /*compute=*/0.01);
  config.iterations = 12;
  config.staging_queue_depth = 2;
  const auto result = simulator.run(config);
  const double staging = spec.staging.transact_seconds(bytes, nodes * 6, nodes);
  // Early epochs fill the queue cheaply; steady-state epochs must wait.
  EXPECT_NEAR(result.epochs.front().io_blocking_seconds, staging, staging * 0.01);
  EXPECT_GT(result.epochs.back().io_blocking_seconds, 5.0 * staging);
}

TEST(EpochSimTest, AsyncNeverSlowerThanSyncTotalWhenComputeCovers) {
  const auto spec = SystemSpec::cori_haswell();
  EpochSimulator simulator(spec);
  const std::uint64_t bytes = 32ull * kGiB;
  const auto sync = simulator.run(base_config(IoMode::kSync, 32, bytes));
  const auto async = simulator.run(base_config(IoMode::kAsync, 32, bytes));
  EXPECT_LT(async.total_seconds, sync.total_seconds);
}

TEST(EpochSimTest, PrefetchedReadsFirstEpochBlocksLaterEpochsFly) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  auto config = base_config(IoMode::kAsync, 64, 32ull * kGiB);
  config.io_kind = storage::IoKind::kRead;
  config.prefetch_reads = true;
  const auto result = simulator.run(config);
  ASSERT_GE(result.epochs.size(), 2u);
  EXPECT_FALSE(result.epochs[0].served_from_cache);
  EXPECT_TRUE(result.epochs[1].served_from_cache);
  EXPECT_GT(result.epochs[0].io_blocking_seconds,
            5.0 * result.epochs[1].io_blocking_seconds);
}

TEST(EpochSimTest, GpuResidencyAddsTransferOverhead) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  auto cpu = base_config(IoMode::kAsync, 16, 8ull * kGiB);
  auto gpu = cpu;
  gpu.gpu_resident = true;
  const double cpu_blocking =
      simulator.run(cpu).epochs[0].io_blocking_seconds;
  const double gpu_blocking =
      simulator.run(gpu).epochs[0].io_blocking_seconds;
  EXPECT_GT(gpu_blocking, cpu_blocking);
  // Pageable memory is worse still.
  gpu.pinned_host_memory = false;
  EXPECT_GT(simulator.run(gpu).epochs[0].io_blocking_seconds, gpu_blocking);
}

TEST(EpochSimTest, StagingTierOrderingDramFastestThenSsd) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  auto config = base_config(IoMode::kAsync, 16, 8ull * kGiB);
  config.staging_tier = StagingTier::kDram;
  const double dram = simulator.run(config).epochs[0].io_blocking_seconds;
  config.staging_tier = StagingTier::kNodeLocalSsd;
  const double ssd = simulator.run(config).epochs[0].io_blocking_seconds;
  // DRAM staging (20 GB/s/node) beats the NVMe (2.1 GB/s/node).
  EXPECT_LT(dram, ssd);
  EXPECT_NEAR(ssd, (8.0 * kGiB / 16) / 2.1e9, 0.05);
}

TEST(EpochSimTest, BurstBufferStagingOnCori) {
  const auto spec = SystemSpec::cori_haswell();
  EpochSimulator simulator(spec);
  auto config = base_config(IoMode::kAsync, 32, 32ull * kGiB);
  config.staging_tier = StagingTier::kBurstBuffer;
  const auto bb = simulator.run(config);
  config.staging_tier = StagingTier::kDram;
  const auto dram = simulator.run(config);
  // The BB is shared and slower than node-local DRAM, but the async
  // path still beats the Lustre-bound sync path.
  EXPECT_GT(bb.epochs[0].io_blocking_seconds, dram.epochs[0].io_blocking_seconds);
  config.staging_tier = StagingTier::kDram;
  config.mode = IoMode::kSync;
  const auto sync = simulator.run(config);
  EXPECT_LT(bb.epochs[0].io_blocking_seconds, sync.epochs[0].io_blocking_seconds);
}

TEST(EpochSimTest, UnsupportedStagingTierRejected) {
  EpochSimulator summit(SystemSpec::summit());
  auto config = base_config(IoMode::kAsync, 4, 1ull * kGiB);
  config.staging_tier = StagingTier::kBurstBuffer;  // Summit has no BB
  EXPECT_THROW(summit.run(config), InvalidArgumentError);

  EpochSimulator cori(SystemSpec::cori_haswell());
  config.staging_tier = StagingTier::kNodeLocalSsd;  // Cori nodes are diskless
  EXPECT_THROW(cori.run(config), InvalidArgumentError);
}

TEST(EpochSimTest, GpuOnCoriRejected) {
  EpochSimulator simulator(SystemSpec::cori_haswell());
  auto config = base_config(IoMode::kAsync, 4, 1ull * kGiB);
  config.gpu_resident = true;
  EXPECT_THROW(simulator.run(config), InvalidArgumentError);
}

TEST(EpochSimTest, ContentionMakesSyncVaryButNotAsync) {
  const auto spec = SystemSpec::summit();
  EpochSimulator simulator(spec);
  const std::uint64_t bytes = 24ull * kGiB;

  auto run_with_seed = [&](IoMode mode, std::uint64_t seed) {
    auto config = base_config(mode, 32, bytes);
    config.contention_sigma_override = 0.35;
    config.seed = seed;
    return simulator.run(config).peak_bandwidth();
  };

  RunningStats sync_bw;
  RunningStats async_bw;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sync_bw.add(run_with_seed(IoMode::kSync, seed));
    async_bw.add(run_with_seed(IoMode::kAsync, seed));
  }
  // Fig. 8: async hides full-system variability behind node-local staging.
  EXPECT_GT(sync_bw.cv(), 0.05);
  EXPECT_LT(async_bw.cv(), 0.01);
}

TEST(EpochSimTest, ObserverReceivesOneRecordPerEpoch) {
  class Counter : public obs::IoObserver {
   public:
    void on_io(const obs::IoRecord& record) override {
      ++count;
      last = record;
    }
    int count = 0;
    obs::IoRecord last;
  };
  Counter counter;
  EpochSimulator simulator(SystemSpec::summit());
  auto config = base_config(IoMode::kAsync, 8, 2ull * kGiB);
  config.observer = &counter;
  simulator.run(config);
  EXPECT_EQ(counter.count, 5);
  EXPECT_TRUE(counter.last.async);
  EXPECT_EQ(counter.last.ranks, 48);
  EXPECT_EQ(counter.last.bytes, 2ull * kGiB);
}

TEST(EpochSimTest, RunValidation) {
  EpochSimulator simulator(SystemSpec::summit());
  auto config = base_config(IoMode::kSync, 0, 1);
  EXPECT_THROW(simulator.run(config), InvalidArgumentError);
  config.nodes = 100000;
  EXPECT_THROW(simulator.run(config), InvalidArgumentError);
  config.nodes = 1;
  config.bytes_per_epoch = 0;
  EXPECT_THROW(simulator.run(config), InvalidArgumentError);
}

TEST(EpochSimTest, TotalsAreConsistent) {
  EpochSimulator simulator(SystemSpec::summit());
  const auto config = base_config(IoMode::kSync, 4, 1ull * kGiB, 2.0);
  const auto result = simulator.run(config);
  double expected = 0.0;
  for (const auto& epoch : result.epochs) {
    expected += epoch.compute_seconds + epoch.io_blocking_seconds;
  }
  EXPECT_NEAR(result.total_seconds, expected, 1e-9);
  EXPECT_EQ(result.ranks, 24);
}

}  // namespace
}  // namespace apio::sim
