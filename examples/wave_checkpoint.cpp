// EQSIM-style example with genuine computation: a 4th-order
// finite-difference wave kernel (the EQSIM preset's WaveGrid) alternating
// with checkpoint I/O phases, run over in-process MPI ranks through the
// async VOL connector.  Demonstrates the "checkpoint-based application"
// structure the paper evaluates, with real stencil work instead of
// sleeps, and prints the per-phase overlap achieved.
#include <cstdio>
#include <memory>

#include "common/units.h"
#include "obs/epoch_analyzer.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/async_connector.h"
#include "workloads/checkpoint_app.h"

int main() {
  using namespace apio;

  storage::ThrottleParams throttle;
  throttle.bandwidth = 96.0 * kMiB;
  throttle.time_scale = 1.0;
  auto file = h5::File::create(
      storage::BackendStack::memory().throttled(throttle).build());
  auto connector = std::make_shared<vol::AsyncConnector>(file);

  // Epoch analyzer: consumes the connector's IoRecord stream plus the
  // EpochScope markers CheckpointApp::run emits, and reconstructs per
  // checkpoint t_comp / t_io / t_transact with Eq. 2a/2b predictions.
  auto analyzer = std::make_shared<obs::EpochAnalyzer>();
  connector->add_observer(analyzer);
  analyzer->attach();

  auto params = workloads::CheckpointParams::eqsim();
  params.domain = {48, 48, 48};
  params.ncomp = 3;
  params.schedule.checkpoints = 4;
  params.schedule.steps_per_checkpoint = 30;
  params.real_compute = true;  // run the 4th-order stencil for real
  workloads::CheckpointApp app(params);

  std::printf("EQSIM preset: %llux%llux%llu grid, %d components, "
              "checkpoint every %d stencil steps, 2 ranks\n",
              static_cast<unsigned long long>(params.domain[0]),
              static_cast<unsigned long long>(params.domain[1]),
              static_cast<unsigned long long>(params.domain[2]), params.ncomp,
              params.schedule.steps_per_checkpoint);

  workloads::CheckpointRunResult result;
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    auto r = app.run(*connector, comm);
    if (comm.rank() == 0) result = r;
  });

  std::printf("\n%12s %16s %16s\n", "checkpoint", "io blocking [s]", "aggregate BW");
  for (std::size_t c = 0; c < result.io_seconds.size(); ++c) {
    std::printf("%12zu %16.4f %16s\n", c, result.io_seconds[c],
                format_bandwidth(static_cast<double>(result.bytes_per_phase) /
                                 result.io_seconds[c])
                    .c_str());
  }
  std::printf("\ntotal runtime %.2f s for %s of checkpoints — the stencil\n"
              "computation overlapped the background transfers.\n",
              result.total_seconds,
              format_bytes(result.bytes_per_phase * result.io_seconds.size())
                  .c_str());
  connector->close();

  analyzer->detach();
  const obs::EpochReport report = analyzer->report();
  std::printf("\n%s\n%s", report.table().c_str(), report.summary().c_str());
  return 0;
}
