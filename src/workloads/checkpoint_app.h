// One checkpointing application: N time steps of computation between
// I/O phases, each phase writing one plotfile or checkpoint group — an
// AMReX-style MultiFab of field components over a uniform domain, plus
// an optional "particles" group of 1-D property datasets — under
// strong scaling (the domain does not grow with ranks).  Nyx, Castro
// and EQSIM (Sec. IV-C) are presets of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/epoch_sim.h"
#include "workloads/workload_common.h"

namespace apio::workloads {

/// Epoch structure of a checkpointing application.
struct CheckpointSchedule {
  int checkpoints = 3;            ///< number of I/O phases
  int steps_per_checkpoint = 20;  ///< time steps per compute phase
  double seconds_per_step = 0.0;  ///< emulated compute per time step
};

/// The defaults are the Nyx small preset.
struct CheckpointParams {
  h5::Dims domain{256, 256, 256};
  int ncomp = 6;  ///< field components per cell
  /// Tracer particles per cell; 0 writes no "particles" group.
  int particles_per_cell = 0;
  int particle_props = 4;  ///< x, y, z, id
  CheckpointSchedule schedule;
  bool gpu_resident = false;
  /// When true the compute phase steps a small private WaveGrid per
  /// rank instead of sleeping (and marks no compute phase).
  bool real_compute = false;
  /// Checkpoint c is the group group_prefix + c zero-padded to
  /// group_digits digits ("plt0003").
  std::string group_prefix = "plt";
  int group_digits = 4;

  /// Nyx (Fig. 4b): 256^3, 6 components, plotfile every 20 steps.
  static CheckpointParams nyx_small();
  /// Nyx (Fig. 4a): 2048^3, plotfile every 50 steps, on Summit's GPUs.
  static CheckpointParams nyx_large();
  /// Castro (Fig. 4c/4d): 128^3, 6 components, 2 particles per cell,
  /// checkpoint "chk00000" every 10 steps.
  static CheckpointParams castro();
  /// EQSIM/SW4 (Fig. 6): 30000 x 30000 x 17000 m at grid size 50 m =>
  /// 600 x 600 x 340 points, 3 displacement + 3 velocity components,
  /// checkpoint "ckpt0000" every 100 steps.
  static CheckpointParams eqsim();
};

/// Result of a real execution (identical on every rank).
struct CheckpointRunResult : PhaseTimes {
  double total_seconds = 0.0;
  /// Requests that completed with an error, aggregated over ranks.  A
  /// resilient run degrades instead of aborting: failures are drained
  /// through an EventSet, counted here, and described in local_errors.
  std::uint64_t failed_requests = 0;
  /// This rank's failure descriptions (identity + message + category);
  /// NOT collective — empty on ranks that saw no failure.
  std::vector<std::string> local_errors;
};

class CheckpointApp {
 public:
  explicit CheckpointApp(CheckpointParams params);

  /// Collective: decomposes the domain across the ranks of `comm` and
  /// writes one checkpoint group per I/O phase through the connector.
  CheckpointRunResult run(vol::Connector& connector, pmpi::Communicator& comm) const;

  const CheckpointParams& params() const { return params_; }

  std::string group_name(int index) const;

  /// Aggregate bytes per checkpoint (fields + particles).
  static std::uint64_t checkpoint_bytes(const CheckpointParams& params);

  /// Simulator configuration reproducing Figs. 4 and 6.
  /// `seconds_per_step` sets the compute phase, swept by the Fig. 7
  /// overlap study.
  static sim::RunConfig sim_config(const sim::SystemSpec& spec, int nodes,
                                   model::IoMode mode, const CheckpointParams& params,
                                   double seconds_per_step);

 private:
  CheckpointParams params_;
};

}  // namespace apio::workloads
