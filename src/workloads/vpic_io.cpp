#include "workloads/vpic_io.h"

#include "common/clock.h"
#include "common/error.h"
#include "common/units.h"
#include "obs/epoch_analyzer.h"

namespace apio::workloads {

std::uint64_t vpic_bytes_per_rank_per_step(const VpicParams& params) {
  return params.particles_per_rank * kVpicProperties.size() * sizeof(float);
}

VpicIoKernel::VpicIoKernel(VpicParams params) : params_(params) {
  APIO_REQUIRE(params_.particles_per_rank >= 1, "need at least one particle");
  APIO_REQUIRE(params_.time_steps >= 1, "need at least one time step");
}

std::string VpicIoKernel::step_group(int step) {
  return "Step#" + std::to_string(step);
}

PhaseTimes VpicIoKernel::run(vol::Connector& connector,
                             pmpi::Communicator& comm) const {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::uint64_t ppr = params_.particles_per_rank;
  const std::uint64_t total = ppr * static_cast<std::uint64_t>(size);
  WallClock clock;

  PhaseTimes result;
  result.bytes_per_phase = total * kVpicProperties.size() * sizeof(float);

  // Particle buffer for this rank, refilled per property.
  std::vector<float> buffer(ppr);
  std::vector<vol::RequestPtr> outstanding;

  for (int step = 0; step < params_.time_steps; ++step) {
    // One model epoch per time step: compute phase, then the I/O phase
    // (the epoch analyzer reconstructs t_comp/t_io/t_transact from
    // these markers plus the connector's IoRecords).
    obs::EpochScope epoch(step);
    simulated_compute(params_.compute_seconds);
    epoch.compute_done();

    // Rank 0 creates this step's group and datasets (metadata is a
    // collective-by-convention operation, as in parallel HDF5).
    if (rank == 0) {
      auto group = connector.file()->root().create_group(step_group(step));
      for (const char* prop : kVpicProperties) {
        group.create_dataset(prop, h5::Datatype::kFloat32, h5::Dims{total});
      }
    }
    comm.barrier();

    const double t0 = clock.now();
    auto group = connector.file()->root().open_group(step_group(step));
    const h5::Selection slab =
        h5::Selection::offsets({static_cast<std::uint64_t>(rank) * ppr}, {ppr});
    for (int p = 0; p < static_cast<int>(kVpicProperties.size()); ++p) {
      auto ds = group.open_dataset(kVpicProperties[p]);
      for (std::uint64_t i = 0; i < ppr; ++i) {
        buffer[i] = particle_value(static_cast<std::uint64_t>(rank) * ppr + i, p);
      }
      outstanding.push_back(connector.dataset_write(
          ds, slab, std::as_bytes(std::span<const float>(buffer))));
    }
    result.add_phase(comm, clock.now() - t0);
    comm.barrier();
  }

  // Drain: the checkpoint is only durable once the background queue is
  // empty (async mode); sync requests are already complete.
  drain_or_throw(comm, outstanding);
  return result;
}

sim::RunConfig VpicIoKernel::sim_config(const sim::SystemSpec& spec, int nodes,
                                        model::IoMode mode, int steps,
                                        double compute_seconds) {
  // Paper configuration: 8 Mi particles/rank, 8 float32 properties
  // (~32 MB per property, 256 MB per rank per step), weak scaling.
  const std::uint64_t per_rank = 8ull * 1024 * 1024 * 8 * sizeof(float);
  const std::uint64_t ranks =
      static_cast<std::uint64_t>(nodes) * spec.ranks_per_node;
  sim::RunConfig config;
  config.nodes = nodes;
  config.mode = mode;
  config.iterations = steps;
  config.compute_seconds = compute_seconds;
  config.bytes_per_epoch = per_rank * ranks;
  config.io_kind = storage::IoKind::kWrite;
  return config;
}

}  // namespace apio::workloads
