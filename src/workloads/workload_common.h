// Shared helpers for the I/O kernels and application proxies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "model/epoch_model.h"
#include "pmpi/world.h"
#include "vol/connector.h"

namespace apio::workloads {

/// Emulated computation phase.  The paper replaces the kernels'
/// computation with a fixed sleep (30 s in their runs; milliseconds in
/// our laptop-scale executions).
inline void simulated_compute(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Deterministic particle-property value: lets readers verify data
/// integrity end-to-end (BD-CATS-IO checks what VPIC-IO wrote).
inline float particle_value(std::uint64_t global_index, int property) {
  // Cheap mix that keeps float32 exactness for verification.
  return static_cast<float>((global_index * 8 + static_cast<std::uint64_t>(property)) %
                            16777216ull);
}

/// Per-phase I/O times of one run.  Every rank holds the same values:
/// each phase's time is the slowest rank's blocking time.
struct PhaseTimes {
  std::vector<double> io_seconds;     ///< one per I/O phase, max over ranks
  std::uint64_t bytes_per_phase = 0;  ///< aggregate over ranks

  /// Collective: appends the slowest rank's `blocking` seconds.
  void add_phase(pmpi::Communicator& comm, double blocking) {
    io_seconds.push_back(comm.allreduce_max(blocking));
  }
  /// Aggregate bandwidth of the fastest phase (the peak Fig. 3 plots);
  /// phases that took 0 s are skipped.
  double peak_bandwidth() const;
};

/// Collective drain: waits for every request without rethrowing
/// (H5ESwait semantics), appends this rank's failure lines to
/// `local_errors` and returns the failures summed over ranks.  A rank
/// whose request failed thus still reaches the collective instead of
/// leaving the other ranks waiting in it.
std::uint64_t drain(pmpi::Communicator& comm,
                    const std::vector<vol::RequestPtr>& requests,
                    std::vector<std::string>& local_errors);

/// drain() for runs that cannot degrade: throws IoError on every rank
/// when any request failed.
void drain_or_throw(pmpi::Communicator& comm,
                    const std::vector<vol::RequestPtr>& requests);

}  // namespace apio::workloads
