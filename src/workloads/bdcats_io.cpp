#include "workloads/bdcats_io.h"

#include "common/clock.h"
#include "common/error.h"
#include "obs/epoch_analyzer.h"

namespace apio::workloads {

BdCatsIoKernel::BdCatsIoKernel(BdCatsParams params) : params_(params) {
  APIO_REQUIRE(params_.particles_per_rank >= 1, "need at least one particle");
  APIO_REQUIRE(params_.time_steps >= 1, "need at least one time step");
}

BdCatsRunResult BdCatsIoKernel::run(vol::Connector& connector,
                                    pmpi::Communicator& comm) const {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::uint64_t ppr = params_.particles_per_rank;
  const std::uint64_t total = ppr * static_cast<std::uint64_t>(size);
  WallClock clock;

  BdCatsRunResult result;
  result.bytes_per_phase = total * kVpicProperties.size() * sizeof(float);

  const h5::Selection slab =
      h5::Selection::offsets({static_cast<std::uint64_t>(rank) * ppr}, {ppr});
  std::vector<float> buffer(ppr);

  auto prefetch_step = [&](int step) {
    auto group = connector.file()->root().open_group(VpicIoKernel::step_group(step));
    for (const char* prop : kVpicProperties) {
      connector.prefetch(group.open_dataset(prop), slab);
    }
  };

  for (int step = 0; step < params_.time_steps; ++step) {
    // One model epoch per time step.  This loop is I/O-first (reads,
    // then the clustering compute), so the compute phase is bracketed
    // explicitly for the epoch analyzer.
    obs::EpochScope epoch(step);
    const double t0 = clock.now();
    auto group = connector.file()->root().open_group(VpicIoKernel::step_group(step));
    std::vector<vol::RequestPtr> reads;
    for (int p = 0; p < static_cast<int>(kVpicProperties.size()); ++p) {
      auto ds = group.open_dataset(kVpicProperties[p]);
      reads.push_back(connector.dataset_read(
          ds, slab, std::as_writable_bytes(std::span<float>(buffer))));
      // The clustering pass needs the values; wait before reusing the
      // buffer for the next property (cache hits complete immediately).
      reads.back()->wait();
      if (params_.verify_data) {
        for (std::uint64_t i = 0; i < ppr; ++i) {
          const float expected =
              particle_value(static_cast<std::uint64_t>(rank) * ppr + i, p);
          if (buffer[i] != expected) ++result.verification_failures;
        }
      }
    }
    const double blocking = clock.now() - t0;

    // Kick off prefetching of the next step before computing on this
    // one — the overlap the async VOL provides.
    if (params_.prefetch && step + 1 < params_.time_steps) {
      prefetch_step(step + 1);
    }
    epoch.compute_start();
    simulated_compute(params_.compute_seconds);
    epoch.compute_done();

    result.add_phase(comm, blocking);
    comm.barrier();
  }

  result.verification_failures = comm.allreduce_sum(result.verification_failures);
  return result;
}

sim::RunConfig BdCatsIoKernel::sim_config(const sim::SystemSpec& spec, int nodes,
                                          model::IoMode mode, int steps,
                                          double compute_seconds) {
  const std::uint64_t per_rank = 8ull * 1024 * 1024 * 8 * sizeof(float);
  const std::uint64_t ranks =
      static_cast<std::uint64_t>(nodes) * spec.ranks_per_node;
  sim::RunConfig config;
  config.nodes = nodes;
  config.mode = mode;
  config.iterations = steps;
  config.compute_seconds = compute_seconds;
  config.bytes_per_epoch = per_rank * ranks;
  config.io_kind = storage::IoKind::kRead;
  config.prefetch_reads = true;
  return config;
}

}  // namespace apio::workloads
