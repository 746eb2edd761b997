#include "workloads/checkpoint_app.h"

#include <memory>

#include "common/clock.h"
#include "common/error.h"
#include "obs/epoch_analyzer.h"
#include "workloads/amr.h"
#include "workloads/eqsim.h"

namespace apio::workloads {

CheckpointParams CheckpointParams::nyx_small() { return {}; }

CheckpointParams CheckpointParams::nyx_large() {
  CheckpointParams p;
  p.domain = {2048, 2048, 2048};
  p.schedule.steps_per_checkpoint = 50;
  p.gpu_resident = true;
  return p;
}

CheckpointParams CheckpointParams::castro() {
  CheckpointParams p;
  p.domain = {128, 128, 128};
  p.particles_per_cell = 2;
  p.schedule.steps_per_checkpoint = 10;
  p.group_prefix = "chk";
  p.group_digits = 5;
  return p;
}

CheckpointParams CheckpointParams::eqsim() {
  CheckpointParams p;
  p.domain = {600, 600, 340};
  p.schedule.steps_per_checkpoint = 100;
  p.group_prefix = "ckpt";
  return p;
}

CheckpointApp::CheckpointApp(CheckpointParams params) : params_(std::move(params)) {
  APIO_REQUIRE(params_.domain.size() == 3, "checkpoint domains are 3-D");
  APIO_REQUIRE(params_.ncomp >= 1, "need at least one component");
  APIO_REQUIRE(params_.particles_per_cell >= 0, "negative particles per cell");
  APIO_REQUIRE(params_.schedule.checkpoints >= 1, "need at least one checkpoint");
  APIO_REQUIRE(params_.schedule.steps_per_checkpoint >= 1,
               "need >= 1 step per checkpoint");
}

std::string CheckpointApp::group_name(int index) const {
  std::string digits = std::to_string(index);
  const int pad = params_.group_digits - static_cast<int>(digits.size());
  if (pad > 0) digits.insert(0, static_cast<std::size_t>(pad), '0');
  return params_.group_prefix + digits;
}

std::uint64_t CheckpointApp::checkpoint_bytes(const CheckpointParams& params) {
  const std::uint64_t cells = h5::num_elements(params.domain);
  const std::uint64_t field_bytes =
      cells * static_cast<std::uint64_t>(params.ncomp) * sizeof(float);
  const std::uint64_t particles =
      cells * static_cast<std::uint64_t>(params.particles_per_cell);
  const std::uint64_t particle_bytes =
      particles * static_cast<std::uint64_t>(params.particle_props) * sizeof(float);
  return field_bytes + particle_bytes;
}

CheckpointRunResult CheckpointApp::run(vol::Connector& connector,
                                       pmpi::Communicator& comm) const {
  const CheckpointParams& p = params_;
  const Box box =
      decompose_domain(p.domain, comm.size())[static_cast<std::size_t>(comm.rank())];
  MultiFab fab(p.domain, p.ncomp, {box});

  // Particle slab of this rank: particles proportional to its cells.
  const std::uint64_t local_particles =
      box.num_cells() * static_cast<std::uint64_t>(p.particles_per_cell);
  const std::uint64_t total_particles = comm.allreduce_sum(local_particles);
  const std::uint64_t particle_offset = comm.exscan_sum(local_particles);
  const h5::Selection slab = h5::Selection::offsets({particle_offset}, {local_particles});
  std::vector<float> particle_buffer(local_particles);

  // Optional genuine compute: a private small wave grid per rank,
  // stepped steps_per_checkpoint times per phase.
  std::unique_ptr<WaveGrid> wave;
  if (p.real_compute) {
    wave = std::make_unique<WaveGrid>(h5::Dims{24, 24, 24}, /*dx=*/50.0,
                                      /*dt=*/0.005, /*wave_speed=*/3000.0);
    wave->seed_pulse(1.0, 3.0);
  }
  const double sleep_seconds =
      p.real_compute ? 0.0
                     : p.schedule.seconds_per_step * p.schedule.steps_per_checkpoint;

  WallClock clock;
  const double t_start = clock.now();
  CheckpointRunResult result;
  result.bytes_per_phase = comm.allreduce_sum(
      fab.local_bytes() +
      local_particles * static_cast<std::uint64_t>(p.particle_props) * sizeof(float));

  std::vector<vol::RequestPtr> outstanding;
  for (int c = 0; c < p.schedule.checkpoints; ++c) {
    // One model epoch per checkpoint.  The compute phase is marked only
    // when it sleeps; the WaveGrid runs after the barrier, where the
    // analyzer's fallback ("compute ends at the first I/O issue")
    // brackets it.
    obs::EpochScope epoch(c);
    if (sleep_seconds > 0.0) {
      simulated_compute(sleep_seconds);
      epoch.compute_done();
    }

    const std::string name = group_name(c);
    if (comm.rank() == 0) {
      MultiFab::create_plotfile(connector, name, p.domain, p.ncomp);
      if (p.particles_per_cell > 0) {
        auto g = connector.file()->root().open_group(name).create_group("particles");
        for (int prop = 0; prop < p.particle_props; ++prop) {
          g.create_dataset("prop" + std::to_string(prop), h5::Datatype::kFloat32,
                           h5::Dims{total_particles});
        }
      }
    }
    comm.barrier();

    if (wave) {
      for (int s = 0; s < p.schedule.steps_per_checkpoint; ++s) wave->step();
    }
    const double t0 = clock.now();
    fab.write_plotfile(connector, name, outstanding);
    if (local_particles > 0) {
      auto g = connector.file()->root().open_group(name).open_group("particles");
      for (int prop = 0; prop < p.particle_props; ++prop) {
        for (std::uint64_t i = 0; i < local_particles; ++i) {
          particle_buffer[i] = particle_value(particle_offset + i, prop);
        }
        outstanding.push_back(connector.dataset_write(
            g.open_dataset("prop" + std::to_string(prop)), slab,
            std::as_bytes(std::span<const float>(particle_buffer))));
      }
    }
    result.add_phase(comm, clock.now() - t0);
    comm.barrier();
  }

  // Failure-tolerant drain: the surviving checkpoints are still valid,
  // so failures are counted instead of aborting the run.
  result.failed_requests = drain(comm, outstanding, result.local_errors);
  comm.barrier();
  result.total_seconds = clock.now() - t_start;
  return result;
}

sim::RunConfig CheckpointApp::sim_config(const sim::SystemSpec& spec, int nodes,
                                         model::IoMode mode,
                                         const CheckpointParams& params,
                                         double seconds_per_step) {
  sim::RunConfig config;
  config.nodes = nodes;
  config.mode = mode;
  config.iterations = params.schedule.checkpoints;
  config.compute_seconds = seconds_per_step * params.schedule.steps_per_checkpoint;
  config.bytes_per_epoch = checkpoint_bytes(params);
  config.io_kind = storage::IoKind::kWrite;
  config.gpu_resident = params.gpu_resident && spec.has_gpus;
  return config;
}

}  // namespace apio::workloads
