// VPIC-IO: the plasma-physics write kernel of Sec. IV-B.
//
// Each MPI rank writes the same number of particles per time step,
// with 8 properties per particle, each property a 1-D dataset — weak
// scaling by construction.  In the paper a rank writes 8x1024x1024
// particles (~32 MB per property); our real executions use scaled-down
// particle counts, while the simulator configuration reproduces the
// paper's sizes at any node count.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/epoch_sim.h"
#include "workloads/workload_common.h"

namespace apio::workloads {

struct VpicParams {
  std::uint64_t particles_per_rank = 8ull * 1024 * 1024;
  int time_steps = 5;
  /// Emulated compute-phase duration between I/O phases.
  double compute_seconds = 0.0;
};

/// The 8 particle properties VPIC writes (position, momentum, energy, id).
inline constexpr std::array<const char*, 8> kVpicProperties = {
    "x", "y", "z", "px", "py", "pz", "energy", "id"};

/// Bytes one rank writes per time step (8 float32 properties).
std::uint64_t vpic_bytes_per_rank_per_step(const VpicParams& params);

class VpicIoKernel {
 public:
  explicit VpicIoKernel(VpicParams params);

  /// Collective: every rank of `comm` must call run() with the same
  /// shared connector.  Writes `time_steps` groups "Step#<i>" each
  /// holding one 1-D dataset per property; rank r writes the slab
  /// [r*ppr, (r+1)*ppr); one phase per step.  Returns identical results
  /// on every rank, and throws IoError on every rank when a write
  /// failed.
  PhaseTimes run(vol::Connector& connector, pmpi::Communicator& comm) const;

  const VpicParams& params() const { return params_; }

  /// Group name of step `i` ("Step#0", ...).
  static std::string step_group(int step);

  /// Simulator configuration reproducing the paper's VPIC-IO runs
  /// (32 MB per property per rank, weak scaling).
  static sim::RunConfig sim_config(const sim::SystemSpec& spec, int nodes,
                                   model::IoMode mode, int steps = 5,
                                   double compute_seconds = 30.0);

 private:
  VpicParams params_;
};

}  // namespace apio::workloads
