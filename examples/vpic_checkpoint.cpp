// VPIC checkpointing example: the paper's headline experiment at laptop
// scale.  Runs the VPIC-IO write kernel over in-process MPI ranks twice
// — once through the synchronous native connector and once through the
// asynchronous connector — against the same throttled "parallel file
// system", then prints the aggregate bandwidths side by side.
//
// Usage: ./build/examples/vpic_checkpoint [ranks] [particles_per_rank]
#include <cstdio>
#include <cstdlib>

#include "common/units.h"
#include "storage/memory_backend.h"
#include "storage/throttled_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "workloads/vpic_io.h"

namespace {

apio::storage::BackendPtr make_pfs() {
  // A 64 MiB/s shared channel: small enough that the sync/async
  // difference is visible in a second-long run.
  apio::storage::ThrottleParams params;
  params.bandwidth = 64.0 * apio::kMiB;
  params.latency = 2e-3;
  params.time_scale = 1.0;
  return std::make_shared<apio::storage::ThrottledBackend>(
      std::make_shared<apio::storage::MemoryBackend>(), params);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apio;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t particles =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 32 * 1024;

  workloads::VpicParams params;
  params.particles_per_rank = particles;
  params.time_steps = 3;
  params.compute_seconds = 0.15;  // "simulation" between checkpoints
  workloads::VpicIoKernel kernel(params);

  std::printf("VPIC-IO: %d ranks x %llu particles x 8 properties = %s/step\n",
              ranks, static_cast<unsigned long long>(particles),
              format_bytes(particles * ranks * 8 * sizeof(float)).c_str());

  auto run_mode = [&](bool async) {
    auto file = h5::File::create(make_pfs());
    std::shared_ptr<vol::Connector> connector;
    if (async) connector = std::make_shared<vol::AsyncConnector>(file);
    else connector = std::make_shared<vol::NativeConnector>(file);

    workloads::PhaseTimes result;
    pmpi::run(ranks, [&](pmpi::Communicator& comm) {
      auto r = kernel.run(*connector, comm);
      if (comm.rank() == 0) result = r;
    });
    connector->close();
    return result;
  };

  std::printf("\n%6s | %12s %16s\n", "mode", "step", "aggregate BW");
  for (bool async : {false, true}) {
    const auto result = run_mode(async);
    for (std::size_t step = 0; step < result.io_seconds.size(); ++step) {
      std::printf("%6s | %12zu %16s\n", async ? "async" : "sync", step,
                  format_bandwidth(static_cast<double>(result.bytes_per_phase) /
                                   result.io_seconds[step])
                      .c_str());
    }
    std::printf("%6s | %12s %16s\n", "", "peak",
                format_bandwidth(result.peak_bandwidth()).c_str());
  }
  std::printf("\nasync blocks only for the staging copy, so its observed\n"
              "aggregate bandwidth is far above the throttled PFS rate\n"
              "(the Fig. 3 effect, at laptop scale).\n");
  return 0;
}
