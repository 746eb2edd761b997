// Shared helpers for the I/O kernels and application proxies.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

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

}  // namespace apio::workloads
