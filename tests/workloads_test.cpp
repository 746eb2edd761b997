// Tests for the I/O kernels and application proxies (real executions at
// laptop scale, plus the simulator-configuration factories).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "common/units.h"
#include "obs/epoch_analyzer.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "workloads/amr.h"
#include "workloads/bdcats_io.h"
#include "workloads/checkpoint_app.h"
#include "workloads/cosmoflow.h"
#include "workloads/eqsim.h"
#include "workloads/vpic_io.h"

namespace apio::workloads {
namespace {

h5::FilePtr mem_file() {
  return h5::File::create(std::make_shared<storage::MemoryBackend>());
}

// ---------------------------------------------------------------------------
// VPIC-IO + BD-CATS-IO (write then read back, both connector modes)

enum class Mode { kSync, kAsync };

class KernelRoundTripTest : public ::testing::TestWithParam<Mode> {
 protected:
  std::shared_ptr<vol::Connector> make_connector(h5::FilePtr file) {
    if (GetParam() == Mode::kSync) {
      return std::make_shared<vol::NativeConnector>(std::move(file));
    }
    return std::make_shared<vol::AsyncConnector>(std::move(file));
  }
};

TEST_P(KernelRoundTripTest, VpicWritesBdCatsReadsAndVerifies) {
  constexpr int kRanks = 4;
  auto file = mem_file();
  auto connector = make_connector(file);

  VpicParams wp;
  wp.particles_per_rank = 2048;
  wp.time_steps = 3;
  VpicIoKernel writer(wp);

  PhaseTimes write_result;
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    if (comm.rank() == 0) write_result = writer.run(*connector, comm);
    else writer.run(*connector, comm);
  });
  connector->wait_all();

  EXPECT_EQ(write_result.io_seconds.size(), 3u);
  EXPECT_EQ(write_result.bytes_per_phase,
            2048ull * kRanks * kVpicProperties.size() * sizeof(float));
  EXPECT_GT(write_result.peak_bandwidth(), 0.0);

  BdCatsParams rp;
  rp.particles_per_rank = 2048;
  rp.time_steps = 3;
  rp.verify_data = true;
  BdCatsIoKernel reader(rp);
  BdCatsRunResult read_result;
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    auto r = reader.run(*connector, comm);
    if (comm.rank() == 0) read_result = r;
  });
  EXPECT_EQ(read_result.verification_failures, 0u);
  EXPECT_EQ(read_result.io_seconds.size(), 3u);
  connector->close();
}

INSTANTIATE_TEST_SUITE_P(BothModes, KernelRoundTripTest,
                         ::testing::Values(Mode::kSync, Mode::kAsync),
                         [](const auto& info) {
                           return info.param == Mode::kSync ? "Sync" : "Async";
                         });

// ---------------------------------------------------------------------------
// Record rank counts: a record reports the issuing thread's pmpi world

class WriteRecorder final : public obs::IoObserver {
 public:
  void on_io(const obs::IoRecord& record) override {
    if (record.op != obs::IoOp::kWrite) return;
    std::lock_guard lock(mutex_);
    writes_.push_back(record);
  }
  std::vector<obs::IoRecord> writes() const {
    std::lock_guard lock(mutex_);
    return writes_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<obs::IoRecord> writes_;
};

/// Runs VPIC-IO on 3 ranks, then one write from the test thread, and
/// checks the rank fields of every write record.
void expect_record_ranks(const std::shared_ptr<vol::Connector>& connector) {
  constexpr int kRanks = 3;
  auto recorder = std::make_shared<WriteRecorder>();
  connector->add_observer(recorder);
  VpicParams params;
  params.particles_per_rank = 256;
  params.time_steps = 2;
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    VpicIoKernel(params).run(*connector, comm);
  });
  connector->wait_all();

  const auto spmd = recorder->writes();
  ASSERT_EQ(spmd.size(), kRanks * params.time_steps * kVpicProperties.size());
  for (const obs::IoRecord& r : spmd) {
    EXPECT_EQ(r.ranks, kRanks);
    EXPECT_GE(r.origin_rank, 0);
    EXPECT_LT(r.origin_rank, kRanks);
  }

  auto ds = connector->file()->root().create_dataset("main", h5::Datatype::kUInt8, {64});
  const std::vector<std::byte> data(64, std::byte{1});
  connector->dataset_write(ds, h5::Selection::all(), data)->wait();
  const auto all = recorder->writes();
  ASSERT_EQ(all.size(), spmd.size() + 1);
  EXPECT_EQ(all.back().ranks, 1);
  EXPECT_EQ(all.back().origin_rank, -1);
  connector->close();
}

TEST(RecordRanksTest, AsyncConnectorRecordsTheWorldSize) {
  expect_record_ranks(std::make_shared<vol::AsyncConnector>(mem_file()));
}

TEST(RecordRanksTest, NativeConnectorRecordsTheWorldSize) {
  expect_record_ranks(std::make_shared<vol::NativeConnector>(mem_file()));
}

TEST(VpicIoTest, BytesPerRankMatchesConfiguration) {
  VpicParams p;
  p.particles_per_rank = 8ull * 1024 * 1024;
  EXPECT_EQ(vpic_bytes_per_rank_per_step(p), 8ull * 1024 * 1024 * 8 * 4);
}

TEST(VpicIoTest, SimConfigIsWeakScaling) {
  const auto spec = sim::SystemSpec::summit();
  const auto small = VpicIoKernel::sim_config(spec, 16, model::IoMode::kSync);
  const auto large = VpicIoKernel::sim_config(spec, 64, model::IoMode::kSync);
  EXPECT_EQ(large.bytes_per_epoch, 4 * small.bytes_per_epoch);
  EXPECT_EQ(small.io_kind, storage::IoKind::kWrite);
}

TEST(VpicIoTest, RejectsDegenerateParams) {
  VpicParams p;
  p.particles_per_rank = 0;
  EXPECT_THROW(VpicIoKernel{p}, InvalidArgumentError);
}

TEST(BdCatsTest, PrefetchingImprovesCacheHitRate) {
  constexpr int kRanks = 2;
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);

  VpicParams wp;
  wp.particles_per_rank = 512;
  wp.time_steps = 4;
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    VpicIoKernel(wp).run(*connector, comm);
  });
  connector->wait_all();

  BdCatsParams rp;
  rp.particles_per_rank = 512;
  rp.time_steps = 4;
  rp.prefetch = true;
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    BdCatsIoKernel(rp).run(*connector, comm);
  });
  const auto stats = connector->stats();
  // Steps 2..4 on each rank should be served from the prefetch cache:
  // 3 steps x 8 properties x 2 ranks hits.
  EXPECT_EQ(stats.cache_hits, 3u * 8 * kRanks);
  connector->close();
}

TEST(BdCatsTest, SimConfigUsesPrefetchedReads) {
  const auto spec = sim::SystemSpec::cori_haswell();
  const auto config = BdCatsIoKernel::sim_config(spec, 8, model::IoMode::kAsync);
  EXPECT_EQ(config.io_kind, storage::IoKind::kRead);
  EXPECT_TRUE(config.prefetch_reads);
}

// ---------------------------------------------------------------------------
// AMR substrate

TEST(AmrTest, DecomposeCoversDomainExactly) {
  const h5::Dims domain{10, 4, 4};
  const auto boxes = decompose_domain(domain, 3);
  ASSERT_EQ(boxes.size(), 3u);
  std::uint64_t cells = 0;
  std::uint64_t next_lo = 0;
  for (const auto& box : boxes) {
    EXPECT_EQ(box.lo[0], next_lo);
    next_lo += box.size[0];
    cells += box.num_cells();
  }
  EXPECT_EQ(cells, h5::num_elements(domain));
  EXPECT_EQ(next_lo, domain[0]);
}

TEST(AmrTest, DecomposeMorePartsThanSlabs) {
  const auto boxes = decompose_domain({2, 4}, 4);
  ASSERT_EQ(boxes.size(), 4u);
  EXPECT_EQ(boxes[0].num_cells(), 4u);
  EXPECT_EQ(boxes[2].num_cells(), 0u);  // empty tail boxes
}

TEST(AmrTest, MultiFabPlotfileRoundTrip) {
  auto file = mem_file();
  vol::NativeConnector connector(file);
  const h5::Dims domain{8, 8, 8};
  const auto boxes = decompose_domain(domain, 2);
  MultiFab fab0(domain, 3, {boxes[0]});
  MultiFab fab1(domain, 3, {boxes[1]});

  MultiFab::create_plotfile(connector, "plt0", domain, 3);
  std::vector<vol::RequestPtr> reqs;
  fab0.write_plotfile(connector, "plt0", reqs);
  fab1.write_plotfile(connector, "plt0", reqs);
  for (auto& r : reqs) r->wait();

  EXPECT_EQ(fab0.verify_plotfile(connector, "plt0"), 0u);
  EXPECT_EQ(fab1.verify_plotfile(connector, "plt0"), 0u);
  EXPECT_EQ(connector.file()->root().open_group("plt0").attribute<std::int32_t>(
                "ncomp"),
            3);
}

TEST(AmrTest, LocalBytesAccounting) {
  const h5::Dims domain{4, 4, 4};
  MultiFab fab(domain, 2, decompose_domain(domain, 1));
  EXPECT_EQ(fab.local_bytes(), 64ull * 2 * sizeof(float));
}

// ---------------------------------------------------------------------------
// Application proxies (tiny real executions through both connectors)

TEST(NyxProxyTest, SmallRunThroughAsyncConnector) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  CheckpointParams params = CheckpointParams::nyx_small();
  params.domain = {16, 16, 16};
  params.ncomp = 3;
  params.schedule.checkpoints = 2;
  params.schedule.steps_per_checkpoint = 2;
  CheckpointApp app(params);

  CheckpointRunResult result;
  pmpi::run(3, [&](pmpi::Communicator& comm) {
    auto r = app.run(*connector, comm);
    if (comm.rank() == 0) result = r;
  });
  EXPECT_EQ(result.io_seconds.size(), 2u);
  EXPECT_EQ(result.bytes_per_phase, 16ull * 16 * 16 * 3 * sizeof(float));
  EXPECT_TRUE(connector->file()->root().has_group("plt0000"));
  EXPECT_TRUE(connector->file()->root().has_group("plt0001"));
  connector->close();
}

TEST(NyxProxyTest, ConfigsMatchPaper) {
  EXPECT_EQ(CheckpointParams::nyx_small().domain, (h5::Dims{256, 256, 256}));
  EXPECT_EQ(CheckpointParams::nyx_small().schedule.steps_per_checkpoint, 20);
  EXPECT_EQ(CheckpointParams::nyx_large().domain, (h5::Dims{2048, 2048, 2048}));
  EXPECT_EQ(CheckpointParams::nyx_large().schedule.steps_per_checkpoint, 50);
  EXPECT_FALSE(CheckpointParams::nyx_small().gpu_resident);
  EXPECT_TRUE(CheckpointParams::nyx_large().gpu_resident);
  EXPECT_EQ(CheckpointParams::nyx_large().ncomp, 6);
  EXPECT_EQ(CheckpointParams::nyx_large().particles_per_cell, 0);
}

TEST(NyxProxyTest, SimConfigIsStrongScaling) {
  const auto spec = sim::SystemSpec::cori_haswell();
  const auto params = CheckpointParams::nyx_small();
  const auto a = CheckpointApp::sim_config(spec, 8, model::IoMode::kSync, params, 2.0);
  const auto b = CheckpointApp::sim_config(spec, 64, model::IoMode::kSync, params, 2.0);
  EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);  // data fixed, ranks grow
}

TEST(CastroProxyTest, WritesFieldsAndParticles) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::NativeConnector>(file);
  CheckpointParams params = CheckpointParams::castro();
  params.domain = {8, 8, 8};
  params.ncomp = 2;
  params.particles_per_cell = 1;
  params.particle_props = 2;
  params.schedule.checkpoints = 1;
  params.schedule.steps_per_checkpoint = 1;
  CheckpointApp app(params);

  CheckpointRunResult result;
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    auto r = app.run(*connector, comm);
    if (comm.rank() == 0) result = r;
  });
  const std::uint64_t expected =
      8ull * 8 * 8 * 2 * sizeof(float) + 8ull * 8 * 8 * 1 * 2 * sizeof(float);
  EXPECT_EQ(result.bytes_per_phase, expected);
  auto chk = connector->file()->root().open_group("chk00000");
  EXPECT_TRUE(chk.has_group("particles"));
  EXPECT_TRUE(chk.open_group("particles").has_dataset("prop0"));
}

TEST(CastroProxyTest, CheckpointBytesFormula) {
  CheckpointParams params = CheckpointParams::castro();
  const std::uint64_t cells = 128ull * 128 * 128;
  EXPECT_EQ(CheckpointApp::checkpoint_bytes(params),
            cells * 6 * 4 + cells * 2 * 4 * 4);
  // Without particles the formula is the fields-only size.
  params.particles_per_cell = 0;
  EXPECT_EQ(CheckpointApp::checkpoint_bytes(params), cells * 6 * 4);
}

TEST(EqsimWaveGridTest, StableStencilKeepsEnergyBounded) {
  WaveGrid grid({16, 16, 16}, /*dx=*/50.0, /*dt=*/0.005, /*wave_speed=*/3000.0);
  grid.seed_pulse(1.0, 2.0);
  const double e0 = grid.energy();
  ASSERT_GT(e0, 0.0);
  for (int i = 0; i < 50; ++i) grid.step();
  const double e1 = grid.energy();
  // A CFL-stable leapfrog scheme must not blow up.
  EXPECT_LT(e1, 20.0 * e0);
  EXPECT_GT(e1, 0.0);
  EXPECT_NEAR(grid.time(), 0.25, 1e-9);
}

TEST(EqsimWaveGridTest, CflViolationRejected) {
  EXPECT_THROW(WaveGrid({16, 16, 16}, 50.0, /*dt=*/1.0, /*wave_speed=*/3000.0),
               InvalidArgumentError);
}

TEST(EqsimWaveGridTest, TooSmallGridRejected) {
  EXPECT_THROW(WaveGrid({4, 16, 16}, 50.0, 0.001, 3000.0), InvalidArgumentError);
}

TEST(EqsimProxyTest, RunWithRealComputeWritesCheckpoints) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  CheckpointParams params = CheckpointParams::eqsim();
  params.domain = {12, 12, 12};
  params.ncomp = 2;
  params.schedule.checkpoints = 2;
  params.schedule.steps_per_checkpoint = 5;
  params.real_compute = true;
  CheckpointApp app(params);

  CheckpointRunResult result;
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    auto r = app.run(*connector, comm);
    if (comm.rank() == 0) result = r;
  });
  EXPECT_EQ(result.io_seconds.size(), 2u);
  EXPECT_TRUE(connector->file()->root().has_group("ckpt0000"));
  connector->close();
}

TEST(EqsimProxyTest, PaperDomainFromGridSpacing) {
  // 30000x30000x17000 m at 50 m spacing.
  const CheckpointParams params = CheckpointParams::eqsim();
  EXPECT_EQ(params.domain, (h5::Dims{600, 600, 340}));
  EXPECT_EQ(params.ncomp, 6);
  EXPECT_EQ(params.schedule.steps_per_checkpoint, 100);
  EXPECT_FALSE(params.real_compute);
}

TEST(CosmoflowProxyTest, PrepareAndTrainWithPrefetch) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  CosmoflowParams params;
  params.samples_per_rank = 4;
  params.sample_shape = {8, 8, 8};
  params.batch_size = 2;
  params.epochs = 2;
  params.prefetch = true;
  CosmoflowProxy proxy(params);

  CosmoflowRunResult result;
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    proxy.prepare(*connector, comm);
    comm.barrier();
    auto r = proxy.train(*connector, comm);
    if (comm.rank() == 0) result = r;
  });
  // 2 epochs x 2 batches per epoch.
  EXPECT_EQ(result.io_seconds.size(), 4u);
  EXPECT_EQ(result.bytes_per_phase, 2ull * 8 * 8 * 8 * sizeof(float) * 2);
  EXPECT_GT(connector->stats().cache_hits, 0u);
  connector->close();
}

TEST(CosmoflowProxyTest, ParamValidation) {
  CosmoflowParams params;
  params.batch_size = 8;
  params.samples_per_rank = 4;  // less than one batch
  EXPECT_THROW(CosmoflowProxy{params}, InvalidArgumentError);
}

TEST(CosmoflowProxyTest, SimConfigReadsWithGpuStaging) {
  const auto spec = sim::SystemSpec::summit();
  CosmoflowParams params;
  const auto config =
      CosmoflowProxy::sim_config(spec, 128, model::IoMode::kAsync, params);
  EXPECT_EQ(config.io_kind, storage::IoKind::kRead);
  EXPECT_TRUE(config.gpu_resident);
  EXPECT_EQ(config.iterations, 4 * (params.samples_per_rank / params.batch_size));
}


// ---------------------------------------------------------------------------
// Pinned behaviour of every workload run loop: each rank's epoch-marker
// stream (what ModeAdvisor and EpochAnalyzer read), the dataset paths
// each checkpoint preset creates, and one phase-time answer on every
// rank.

using Kind = obs::EpochEvent::Kind;

struct Marker {
  Kind kind;
  std::int64_t epoch;
  int rank;
  bool operator==(const Marker&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Marker& m) {
  return os << obs::to_string(m.kind) << "(" << m.epoch << ")@" << m.rank;
}

/// Records the marker stream of each rank while it is alive.
class MarkerLog final : public obs::EpochSink {
 public:
  explicit MarkerLog(int ranks) : streams_(static_cast<std::size_t>(ranks)) {
    obs::add_epoch_sink(this);
  }
  ~MarkerLog() override { obs::remove_epoch_sink(this); }

  void on_epoch_event(const obs::EpochEvent& e) override {
    std::lock_guard<std::mutex> lock(mutex_);
    streams_.at(static_cast<std::size_t>(e.rank)).push_back({e.kind, e.epoch, e.rank});
  }

  std::vector<Marker> stream(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return streams_.at(static_cast<std::size_t>(rank));
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<Marker>> streams_;
};

/// `kinds` once per epoch 0..epochs-1, on `rank`.
std::vector<Marker> per_epoch(int epochs, int rank, std::initializer_list<Kind> kinds) {
  std::vector<Marker> out;
  for (int e = 0; e < epochs; ++e) {
    for (Kind k : kinds) out.push_back({k, e, rank});
  }
  return out;
}

void expect_streams(const MarkerLog& log, int ranks, int epochs,
                    std::initializer_list<Kind> kinds) {
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(log.stream(r), per_epoch(epochs, r, kinds)) << "rank " << r;
  }
}

/// One rank's view of a run's phase times.
struct Phases {
  std::vector<double> io_seconds;
  std::uint64_t bytes_per_phase = 0;
  bool operator==(const Phases&) const = default;
};

Phases phases_of(const PhaseTimes& r) { return {r.io_seconds, r.bytes_per_phase}; }

/// Runs `body` on `ranks` ranks and returns each rank's phases.
template <typename Body>
std::vector<Phases> run_ranks(int ranks, Body body) {
  std::vector<Phases> out(static_cast<std::size_t>(ranks));
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    out[static_cast<std::size_t>(comm.rank())] = phases_of(body(comm));
  });
  return out;
}

void expect_same_on_every_rank(const std::vector<Phases>& phases, std::size_t count,
                               std::uint64_t bytes) {
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases[0].io_seconds.size(), count);
  EXPECT_EQ(phases[0].bytes_per_phase, bytes);
  for (std::size_t r = 1; r < phases.size(); ++r) {
    EXPECT_EQ(phases[r], phases[0]) << "rank " << r;
  }
}

/// Every dataset path under `g`, sorted.
void collect_datasets(const h5::Group& g, const std::string& prefix,
                      std::vector<std::string>& out) {
  for (const auto& d : g.dataset_names()) out.push_back(prefix + d);
  for (const auto& n : g.group_names()) collect_datasets(g.open_group(n), prefix + n + "/", out);
}

std::vector<std::string> dataset_paths(const h5::FilePtr& file) {
  std::vector<std::string> out;
  collect_datasets(file->root(), "", out);
  std::sort(out.begin(), out.end());
  return out;
}

constexpr int kMarkerRanks = 3;
constexpr std::uint64_t kParticles = 64;

void run_vpic(vol::Connector& connector, int steps, double compute_seconds,
              MarkerLog& log) {
  VpicParams p;
  p.particles_per_rank = kParticles;
  p.time_steps = steps;
  p.compute_seconds = compute_seconds;
  const auto phases = run_ranks(kMarkerRanks, [&](pmpi::Communicator& comm) {
    return VpicIoKernel(p).run(connector, comm);
  });
  expect_same_on_every_rank(phases, static_cast<std::size_t>(steps),
                            kParticles * kMarkerRanks * kVpicProperties.size() *
                                sizeof(float));
  // Compute is marked done even when there is none.
  expect_streams(log, kMarkerRanks, steps, {Kind::kBegin, Kind::kComputeDone, Kind::kEnd});
}

TEST(WorkloadMarkerTest, VpicMarksComputeDoneWithoutCompute) {
  auto connector = std::make_shared<vol::AsyncConnector>(mem_file());
  MarkerLog log(kMarkerRanks);
  run_vpic(*connector, 3, 0.0, log);
  connector->close();
}

TEST(WorkloadMarkerTest, VpicWithComputeMarksEveryStep) {
  auto connector = std::make_shared<vol::NativeConnector>(mem_file());
  MarkerLog log(kMarkerRanks);
  run_vpic(*connector, 2, 0.002, log);
  connector->close();
}

TEST(WorkloadMarkerTest, BdCatsWithPrefetchBracketsCompute) {
  auto connector = std::make_shared<vol::AsyncConnector>(mem_file());
  VpicParams wp;
  wp.particles_per_rank = kParticles;
  wp.time_steps = 3;
  pmpi::run(kMarkerRanks, [&](pmpi::Communicator& comm) {
    VpicIoKernel(wp).run(*connector, comm);
  });
  connector->wait_all();

  MarkerLog log(kMarkerRanks);
  BdCatsParams rp;
  rp.particles_per_rank = kParticles;
  rp.time_steps = 3;
  rp.prefetch = true;
  const auto phases = run_ranks(kMarkerRanks, [&](pmpi::Communicator& comm) {
    return BdCatsIoKernel(rp).run(*connector, comm);
  });
  expect_same_on_every_rank(
      phases, 3, kParticles * kMarkerRanks * kVpicProperties.size() * sizeof(float));
  expect_streams(log, kMarkerRanks, 3,
                 {Kind::kBegin, Kind::kComputeStart, Kind::kComputeDone, Kind::kEnd});
  connector->close();
}

TEST(WorkloadMarkerTest, CosmoflowNumbersBatchesAcrossEpochs) {
  auto connector = std::make_shared<vol::AsyncConnector>(mem_file());
  CosmoflowParams params;
  params.samples_per_rank = 4;
  params.sample_shape = {4, 4, 4};
  params.batch_size = 2;
  params.epochs = 2;
  params.prefetch = true;
  CosmoflowProxy proxy(params);

  MarkerLog log(kMarkerRanks);
  const auto phases = run_ranks(kMarkerRanks, [&](pmpi::Communicator& comm) {
    proxy.prepare(*connector, comm);
    return proxy.train(*connector, comm);
  });
  // 2 epochs x 2 batches, numbered 0..3; prepare() marks nothing.
  expect_same_on_every_rank(phases, 4, 2ull * 4 * 4 * 4 * sizeof(float) * kMarkerRanks);
  expect_streams(log, kMarkerRanks, 4,
                 {Kind::kBegin, Kind::kComputeStart, Kind::kComputeDone, Kind::kEnd});
  connector->close();
}

// The three checkpoint presets, shrunk to a 6x4x4 domain with 2
// components and 2 checkpoints.
std::vector<Phases> run_nyx(vol::Connector& connector, double seconds_per_step) {
  CheckpointParams params = CheckpointParams::nyx_small();
  params.domain = {6, 4, 4};
  params.ncomp = 2;
  params.schedule.checkpoints = 2;
  params.schedule.steps_per_checkpoint = 2;
  params.schedule.seconds_per_step = seconds_per_step;
  return run_ranks(kMarkerRanks, [&](pmpi::Communicator& comm) {
    return CheckpointApp(params).run(connector, comm);
  });
}

std::vector<Phases> run_castro(vol::Connector& connector) {
  CheckpointParams params = CheckpointParams::castro();
  params.domain = {6, 4, 4};
  params.ncomp = 2;
  params.particle_props = 2;
  params.schedule.checkpoints = 2;
  params.schedule.steps_per_checkpoint = 1;
  return run_ranks(kMarkerRanks, [&](pmpi::Communicator& comm) {
    return CheckpointApp(params).run(connector, comm);
  });
}

std::vector<Phases> run_eqsim(vol::Connector& connector, double seconds_per_step) {
  CheckpointParams params = CheckpointParams::eqsim();
  params.domain = {6, 4, 4};
  params.ncomp = 2;
  params.schedule.checkpoints = 2;
  params.schedule.steps_per_checkpoint = 2;
  params.schedule.seconds_per_step = seconds_per_step;
  params.real_compute = true;
  return run_ranks(kMarkerRanks, [&](pmpi::Communicator& comm) {
    return CheckpointApp(params).run(connector, comm);
  });
}

constexpr std::uint64_t kPresetFieldBytes = 6ull * 4 * 4 * 2 * sizeof(float);

TEST(WorkloadMarkerTest, NyxPresetMarksComputeWhenItSleeps) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  MarkerLog log(kMarkerRanks);
  expect_same_on_every_rank(run_nyx(*connector, 0.001), 2, kPresetFieldBytes);
  expect_streams(log, kMarkerRanks, 2, {Kind::kBegin, Kind::kComputeDone, Kind::kEnd});
  connector->wait_all();
  EXPECT_EQ(dataset_paths(file),
            (std::vector<std::string>{"plt0000/comp0", "plt0000/comp1",
                                      "plt0001/comp0", "plt0001/comp1"}));
  connector->close();
}

TEST(WorkloadMarkerTest, CastroPresetWithoutComputeSkipsComputeDone) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  MarkerLog log(kMarkerRanks);
  // Fields plus 2 particles per cell with 2 float32 properties.
  expect_same_on_every_rank(run_castro(*connector), 2,
                            kPresetFieldBytes + 6ull * 4 * 4 * 2 * 2 * sizeof(float));
  expect_streams(log, kMarkerRanks, 2, {Kind::kBegin, Kind::kEnd});
  connector->wait_all();
  EXPECT_EQ(dataset_paths(file),
            (std::vector<std::string>{
                "chk00000/comp0", "chk00000/comp1", "chk00000/particles/prop0",
                "chk00000/particles/prop1", "chk00001/comp0", "chk00001/comp1",
                "chk00001/particles/prop0", "chk00001/particles/prop1"}));
  connector->close();
}

TEST(WorkloadMarkerTest, EqsimRealComputeReplacesTheSleepAndItsMarker) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  MarkerLog log(kMarkerRanks);
  expect_same_on_every_rank(run_eqsim(*connector, 0.05), 2, kPresetFieldBytes);
  expect_streams(log, kMarkerRanks, 2, {Kind::kBegin, Kind::kEnd});
  connector->wait_all();
  EXPECT_EQ(dataset_paths(file),
            (std::vector<std::string>{"ckpt0000/comp0", "ckpt0000/comp1",
                                      "ckpt0001/comp0", "ckpt0001/comp1"}));
  connector->close();
}

// Castro on a 2-slab domain across 4 ranks: ranks 2 and 3 hold empty
// boxes and no particles, yet take part in every collective.
std::vector<Phases> run_castro_on_empty_boxes(vol::Connector& connector) {
  CheckpointParams params = CheckpointParams::castro();
  params.domain = {2, 4, 4};
  params.ncomp = 2;
  params.schedule.checkpoints = 1;
  params.schedule.steps_per_checkpoint = 1;
  return run_ranks(4, [&](pmpi::Communicator& comm) {
    return CheckpointApp(params).run(connector, comm);
  });
}

TEST(CheckpointAppTest, MoreRanksThanSlabsLeavesEmptyBoxesIdle) {
  auto file = mem_file();
  auto connector = std::make_shared<vol::NativeConnector>(file);
  constexpr std::uint64_t kCells = 2 * 4 * 4;
  // 2 float32 components + 2 particles per cell x 4 float32 properties.
  expect_same_on_every_rank(run_castro_on_empty_boxes(*connector), 1,
                            kCells * 2 * sizeof(float) + kCells * 2 * 4 * sizeof(float));

  auto chk = file->root().open_group("chk00000");
  for (int c = 0; c < 2; ++c) {
    const auto values = chk.open_dataset(MultiFab::component_name(c))
                            .read_vector<float>(h5::Selection::all());
    ASSERT_EQ(values.size(), kCells);
    for (std::uint64_t i = 0; i < kCells; ++i) {
      EXPECT_EQ(values[i], MultiFab::cell_value(c, i)) << "comp " << c << " cell " << i;
    }
  }
  auto particles = chk.open_group("particles");
  for (int p = 0; p < 4; ++p) {
    const auto values = particles.open_dataset("prop" + std::to_string(p))
                            .read_vector<float>(h5::Selection::all());
    ASSERT_EQ(values.size(), kCells * 2);
    for (std::uint64_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(values[i], particle_value(i, p)) << "prop " << p << " particle " << i;
    }
  }
  connector->close();
}

// A failed async write must fail the run on every rank, not strand the
// ranks whose writes landed in the next collective.
TEST(VpicDrainTest, FailedAsyncWriteFailsEveryRank) {
  auto faulty = std::make_shared<storage::FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), storage::FaultPlan{});
  auto connector = std::make_shared<vol::AsyncConnector>(h5::File::create(faulty));
  // 2 ranks x 8 properties = 16 data writes (metadata stays in memory
  // until flush): exactly one fails.
  storage::FaultPlan plan;
  plan.fail_every_n_writes = 16;
  faulty->set_plan(plan);

  VpicParams p;
  p.particles_per_rank = kParticles;
  p.time_steps = 1;
  EXPECT_THROW(pmpi::run(2, [&](pmpi::Communicator& comm) {
                 VpicIoKernel(p).run(*connector, comm);
               }),
               IoError);
  EXPECT_EQ(faulty->faults_injected(), 1u);
  faulty->heal();
  connector->close();
}

}  // namespace
}  // namespace apio::workloads
