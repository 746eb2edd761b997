// BD-CATS-IO: the clustering read kernel of Sec. IV-B.
//
// Reads the particle data written by VPIC-IO, one time step per epoch,
// with the clustering computation replaced by an emulated compute
// phase.  In async mode the kernel exercises the VOL's prefetch path:
// the first time step is a blocking read (nothing to prefetch behind),
// and while step t is being processed the connector prefetches step
// t+1 into node-local memory — the behaviour of the HDF5 async VOL the
// paper describes (Sec. V-A2).
#pragma once

#include <cstdint>

#include "sim/epoch_sim.h"
#include "workloads/vpic_io.h"

namespace apio::workloads {

struct BdCatsParams {
  std::uint64_t particles_per_rank = 8ull * 1024 * 1024;
  int time_steps = 5;
  double compute_seconds = 0.0;
  /// Issue prefetches for the next step while computing (async mode).
  bool prefetch = true;
  /// Verify every value against the VPIC generator (tests set this).
  bool verify_data = false;
};

/// One phase per step (identical on every rank).
struct BdCatsRunResult : PhaseTimes {
  std::uint64_t verification_failures = 0;  ///< summed over ranks
};

class BdCatsIoKernel {
 public:
  explicit BdCatsIoKernel(BdCatsParams params);

  /// Collective read of a container previously produced by VpicIoKernel
  /// with matching particle counts and step count.
  BdCatsRunResult run(vol::Connector& connector, pmpi::Communicator& comm) const;

  /// Simulator configuration (weak-scaling read of VPIC output).
  static sim::RunConfig sim_config(const sim::SystemSpec& spec, int nodes,
                                   model::IoMode mode, int steps = 5,
                                   double compute_seconds = 30.0);

 private:
  BdCatsParams params_;
};

}  // namespace apio::workloads
