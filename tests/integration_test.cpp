// Cross-module integration tests: the model feedback loop attached to
// real connectors over throttled storage, advisor-vs-oracle decisions,
// model accuracy over simulated scaling sweeps, and consistency between
// the real async connector and the epoch simulator's pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"
#include "model/advisor.h"
#include "sim/epoch_sim.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "workloads/vpic_io.h"

namespace apio {
namespace {

using model::IoMode;

storage::BackendPtr slow_backend(double bandwidth, double latency = 0.0) {
  storage::ThrottleParams params;
  params.bandwidth = bandwidth;
  params.latency = latency;
  params.time_scale = 1.0;
  return storage::BackendStack::memory().throttled(params).build();
}

TEST(FeedbackLoopTest, AdvisorLearnsFromRealConnectors) {
  // A slow "PFS" (8 MiB/s) and fast staging: after observing both
  // modes, the advisor must recommend async when compute is ample and
  // sync when there is nothing to overlap with.
  auto advisor = std::make_shared<model::ModeAdvisor>();
  // Sees the same records; only its compute sample differs.
  auto cold = std::make_shared<model::ModeAdvisor>();

  const std::uint64_t chunk = 256 * kKiB;
  std::vector<std::uint8_t> data(chunk, 1);

  {
    auto file = h5::File::create(slow_backend(8.0 * kMiB));
    vol::NativeConnector sync_conn(file);
    sync_conn.add_observer(advisor);
    sync_conn.add_observer(cold);
    auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {chunk * 8});
    for (int i = 0; i < 4; ++i) {
      sync_conn.dataset_write(
          ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * chunk}, {chunk}),
          std::as_bytes(std::span<const std::uint8_t>(data)));
    }
  }
  {
    auto file = h5::File::create(slow_backend(8.0 * kMiB));
    vol::AsyncConnector async_conn(file);
    async_conn.add_observer(advisor);
    async_conn.add_observer(cold);
    auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {chunk * 8});
    for (int i = 0; i < 4; ++i) {
      async_conn.dataset_write(
          ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * chunk}, {chunk}),
          std::as_bytes(std::span<const std::uint8_t>(data)));
      async_conn.wait_all();  // keep queue short; we only need timing samples
    }
    async_conn.close();
  }

  ASSERT_TRUE(advisor->sync_ready());
  ASSERT_TRUE(advisor->async_ready());

  // The staging copy must be far faster than the throttled PFS.
  EXPECT_LT(advisor->estimate_transact_seconds(chunk, 1),
            0.5 * advisor->estimate_io_seconds(chunk, 1));

  advisor->record_compute(1.0);  // compute dwarfs both
  EXPECT_EQ(advisor->recommend(chunk, 1), IoMode::kAsync);

  // The other compute regime: negligible compute phases.
  cold->record_compute(1e-6);
  // With ~zero compute, async cannot amortise the staging copy of an
  // epoch whose I/O it can't overlap with anything.
  const auto costs = cold->predict_epoch(chunk, 1);
  EXPECT_EQ(cold->recommend(chunk, 1),
            model::async_is_beneficial(costs) ? IoMode::kAsync : IoMode::kSync);
}

TEST(FeedbackLoopTest, SimulatorFeedsAdvisorFig2Loop) {
  // Run a weak-scaling sweep in the simulator with the advisor attached
  // as the Fig. 2 observer; the fitted model must then predict held-out
  // configurations accurately (the dotted lines of Fig. 3).
  const auto spec = sim::SystemSpec::summit();
  sim::EpochSimulator simulator(spec);
  auto advisor = std::make_shared<model::ModeAdvisor>();

  auto run_nodes = [&](int nodes, IoMode mode, model::ModeAdvisor* observer) {
    auto config = workloads::VpicIoKernel::sim_config(spec, nodes, mode);
    config.contention_sigma_override = 0.0;
    config.observer = observer;
    return simulator.run(config);
  };

  for (int nodes : {2, 4, 8, 16, 32, 64}) {
    run_nodes(nodes, IoMode::kSync, advisor.get());
    run_nodes(nodes, IoMode::kAsync, advisor.get());
  }

  EXPECT_GT(advisor->sync_r_squared(), 0.80);   // paper: above 80 %
  EXPECT_GT(advisor->async_r_squared(), 0.90);  // paper: above 90 %

  // Held-out prediction at 128 nodes within 2x of the simulated truth
  // (log-scale figures; the paper's fits are trend fits, not exact).
  // The simulator is deterministic, so a holdout advisor re-runs the
  // sweep without the 128-node point that is then predicted.
  const int nodes = 128;
  auto holdout = std::make_shared<model::ModeAdvisor>();
  for (int n : {2, 4, 8, 16, 32, 64}) {
    run_nodes(n, IoMode::kSync, holdout.get());
    run_nodes(n, IoMode::kAsync, holdout.get());
  }
  const auto truth = run_nodes(nodes, IoMode::kSync, nullptr);
  const std::uint64_t bytes =
      workloads::VpicIoKernel::sim_config(spec, nodes, IoMode::kSync).bytes_per_epoch;
  const double predicted = holdout->estimate_io_seconds(bytes, nodes * 6);
  const double actual = truth.epochs.front().io_blocking_seconds;
  EXPECT_LT(std::fabs(std::log(predicted / actual)), std::log(2.0));
}

TEST(ConsistencyTest, RealAsyncConnectorMatchesSimulatorPipelineShape) {
  // The real connector on a throttled backend and the simulator's async
  // pipeline must agree qualitatively: caller-visible blocking is a
  // small fraction of the end-to-end completion when compute covers the
  // background transfer.
  // 0.5 s modelled background transfer: long enough that main-thread
  // descheduling (tens of ms when a parallel TSan run saturates the
  // cores) cannot push the staging-copy blocking time past the bound.
  const std::uint64_t bytes = 1ull * kMiB;
  auto file = h5::File::create(slow_backend(2.0 * kMiB));
  vol::AsyncConnector conn(file);

  class Capture : public vol::IoObserver {
   public:
    void on_io(const vol::IoRecord& r) override {
      std::lock_guard<std::mutex> lock(m);
      records.push_back(r);
    }
    std::mutex m;
    std::vector<vol::IoRecord> records;
  };
  auto capture = std::make_shared<Capture>();
  conn.add_observer(capture);

  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {bytes});
  std::vector<std::uint8_t> data(bytes, 3);
  conn.dataset_write(ds, h5::Selection::all(),
                     std::as_bytes(std::span<const std::uint8_t>(data)));
  conn.wait_all();
  conn.close();

  ASSERT_EQ(capture->records.size(), 1u);
  const auto& r = capture->records[0];
  // Blocking (staging memcpy) should be well under the ~0.5 s
  // background transfer of 1 MiB at 2 MiB/s.
  EXPECT_LT(r.blocking_seconds, 0.3 * r.completion_seconds);
}

TEST(ConsistencyTest, ThroughputGainMatchesEpochAlgebra) {
  // Execute the same epoch loop (compute + write) through both real
  // connectors and verify Eq. 2a/2b predicts the winner.
  const std::uint64_t bytes = 512 * kKiB;
  const double compute = 0.08;
  const double pfs_bw = 4.0 * kMiB;
  const int iterations = 4;

  auto run_mode = [&](bool async) {
    auto file = h5::File::create(slow_backend(pfs_bw));
    std::shared_ptr<vol::Connector> conn;
    if (async) conn = std::make_shared<vol::AsyncConnector>(file);
    else conn = std::make_shared<vol::NativeConnector>(file);
    auto ds = file->root().create_dataset(
        "d", h5::Datatype::kUInt8,
        {bytes * static_cast<std::uint64_t>(iterations)});
    std::vector<std::uint8_t> data(bytes, 1);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      // Simulated compute phase.
      std::this_thread::sleep_for(  // apio-lint: allow(no-test-sleep)
          std::chrono::duration<double>(compute));
      conn->dataset_write(
          ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * bytes}, {bytes}),
          std::as_bytes(std::span<const std::uint8_t>(data)));
    }
    conn->wait_all();
    const double total =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    conn->close();
    return total;
  };

  const double sync_total = run_mode(false);
  const double async_total = run_mode(true);
  // I/O per epoch is ~0.125 s vs 0.08 s compute: partial overlap, but
  // async must still beat sync clearly (staging is a memcpy).
  EXPECT_LT(async_total, 0.9 * sync_total);
}

TEST(ModelAccuracyTest, LinearLogBeatsLinearForSaturatingSyncWrites) {
  // The paper chose linear-log for the sync write trend; our auto-form
  // selection should reach the same conclusion on a saturating sweep.
  const auto spec = sim::SystemSpec::cori_haswell();
  sim::EpochSimulator simulator(spec);
  std::vector<std::vector<double>> linear_rows;
  std::vector<std::vector<double>> log_rows;
  std::vector<double> rates;
  model::IoRateEstimator autoform(model::FeatureForm::kLinear);
  for (int nodes = 1; nodes <= 256; nodes *= 2) {
    auto config = workloads::VpicIoKernel::sim_config(spec, nodes, IoMode::kSync);
    config.contention_sigma_override = 0.0;
    const auto result = simulator.run(config);
    const double size = static_cast<double>(config.bytes_per_epoch);
    const double ranks = static_cast<double>(result.ranks);
    linear_rows.push_back(model::make_features(model::FeatureForm::kLinear, size, ranks));
    log_rows.push_back(model::make_features(model::FeatureForm::kLinearLog, size, ranks));
    rates.push_back(result.peak_bandwidth());
    autoform.add({config.bytes_per_epoch, result.ranks, rates.back()});
  }
  const auto linear = model::fit_least_squares(linear_rows, rates);
  const auto linear_log = model::fit_least_squares(log_rows, rates);
  EXPECT_GE(linear_log.r_squared, linear.r_squared);
  EXPECT_GT(linear_log.r_squared, 0.8);
  EXPECT_EQ(autoform.form(), model::FeatureForm::kLinearLog);
}

TEST(EndToEndTest, VpicThroughThrottledPfsShowsAsyncBandwidthAdvantage) {
  // Miniature Fig. 3: the same VPIC write kernel, sync vs async
  // connector, over the same throttled "PFS"; async must report much
  // higher aggregate bandwidth because only the staging copy blocks.
  constexpr int kRanks = 2;
  workloads::VpicParams params;
  params.particles_per_rank = 16 * 1024;  // 512 KiB/rank/step
  params.time_steps = 2;
  // Slow enough that the modelled transfer (128 ms/step) dominates the
  // real-world noise on the async path (staging copies + thread
  // wakeups, tens of ms under a parallel TSan run); at 32 MiB/s the
  // 16 ms modelled sleep was comparable to that noise and the 2x
  // margin flaked under load.
  const double pfs_bw = 4.0 * kMiB;

  auto run_mode = [&](bool async) {
    auto file = h5::File::create(slow_backend(pfs_bw));
    std::shared_ptr<vol::Connector> conn;
    if (async) conn = std::make_shared<vol::AsyncConnector>(file);
    else conn = std::make_shared<vol::NativeConnector>(file);
    workloads::PhaseTimes result;
    pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
      auto r = workloads::VpicIoKernel(params).run(*conn, comm);
      if (comm.rank() == 0) result = r;
    });
    conn->close();
    return result.peak_bandwidth();
  };

  const double sync_bw = run_mode(false);
  const double async_bw = run_mode(true);
  EXPECT_GT(async_bw, 2.0 * sync_bw);
}

}  // namespace
}  // namespace apio
