// Adaptive I/O example: the Fig. 2 feedback loop in action.
//
// An iterative application runs 12 epochs whose compute phase shrinks
// over time (a strong-scaling-like drift).  The ModeAdvisor observes
// every transfer through the connector's IoObserver hook and each
// compute phase through the EpochScope markers, refits its rate models,
// and picks sync or async per upcoming I/O phase.  Early
// epochs explore (sync first to establish the baseline, then async);
// later epochs exploit the fitted model, and when the compute phase
// becomes too short to amortise the staging copy the advisor switches
// back to synchronous I/O — the paper's motivating scenario (Sec. II-B).
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/units.h"
#include "model/advisor.h"
#include "obs/epoch_analyzer.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"

int main() {
  using namespace apio;

  // A shared throttled "PFS" under both connectors.
  storage::ThrottleParams throttle;
  throttle.bandwidth = 48.0 * kMiB;
  throttle.time_scale = 1.0;
  auto backend = storage::BackendStack::memory().throttled(throttle).build();
  auto file = h5::File::create(backend);

  auto advisor = std::make_shared<model::ModeAdvisor>();
  vol::NativeConnector sync_conn(file);
  vol::AsyncConnector async_conn(file);
  sync_conn.add_observer(advisor);
  async_conn.add_observer(advisor);

  constexpr std::uint64_t kBaseBytes = 768 * kKiB;
  constexpr int kEpochs = 12;
  // Checkpoint sizes vary across epochs (1x..3x) so the rate fits have
  // a real size axis to regress over.
  auto epoch_bytes = [](int epoch) {
    return kBaseBytes * static_cast<std::uint64_t>(1 + epoch % 3);
  };
  std::uint64_t total_bytes = 0;
  for (int e = 0; e < kEpochs; ++e) total_bytes += epoch_bytes(e);
  auto ds = file->root().create_dataset("checkpoint", h5::Datatype::kUInt8,
                                        {total_bytes});
  std::vector<std::uint8_t> payload(3 * kBaseBytes, 7);

  std::printf("%6s %12s %10s %12s %14s | %s\n", "epoch", "compute [s]", "size",
              "mode", "io block [s]", "advisor state");
  std::uint64_t offset = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // The epoch markers are the advisor's only compute signal: the
    // window from the scope's begin to compute_done() is one t_comp
    // sample.  Compute shrinks 0.30 s -> ~0.01 s over the run.
    obs::EpochScope scope(epoch);
    const double compute = 0.30 * std::pow(0.72, epoch);
    std::this_thread::sleep_for(std::chrono::duration<double>(compute));
    scope.compute_done();

    const std::uint64_t bytes = epoch_bytes(epoch);
    const model::IoMode mode = advisor->recommend(bytes, 1);
    const h5::Selection slab = h5::Selection::offsets({offset}, {bytes});
    offset += bytes;
    const auto view =
        std::span<const std::uint8_t>(payload.data(), static_cast<std::size_t>(bytes));

    const auto t0 = std::chrono::steady_clock::now();
    if (mode == model::IoMode::kSync) {
      sync_conn.dataset_write(ds, slab, std::as_bytes(view));
    } else {
      async_conn.dataset_write(ds, slab, std::as_bytes(view));
    }
    const double blocked =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    std::string state;
    if (!advisor->sync_ready()) state = "exploring sync baseline";
    else if (!advisor->async_ready()) state = "exploring async";
    else {
      const auto scenario = advisor->predict_scenario(bytes, 1);
      state = "exploiting model (predicts " + model::to_string(scenario) + ")";
    }
    std::printf("%6d %12.3f %10s %12s %14.4f | %s\n", epoch, compute,
                format_bytes(bytes).c_str(), model::to_string(mode).c_str(), blocked,
                state.c_str());
  }

  async_conn.wait_all();
  std::printf("\nfitted model: r^2(sync)=%.2f r^2(async)=%.2f over %zu samples\n",
              advisor->sync_r_squared(), advisor->async_r_squared(),
              advisor->sample_count());
  async_conn.close();
  return 0;
}
