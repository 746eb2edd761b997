// The compute kernel of the EQSIM/SW4 preset (Sec. IV-C).
//
// SW4 solves fourth-order-accurate seismic wave equations; its I/O
// phase checkpoints the displacement/velocity fields every N steps
// (CheckpointParams::eqsim()).  WaveGrid is a real (small)
// fourth-order finite-difference wave kernel, run by CheckpointApp's
// real_compute mode so examples exercise genuine computation, not
// just sleeps.
#pragma once

#include <vector>

#include "h5/dataspace.h"

namespace apio::workloads {

/// A 3-D scalar wave field updated with a 4th-order central-difference
/// Laplacian and leapfrog time stepping.  Deterministic; used as the
/// EQSIM preset's compute phase and directly testable (a standing wave
/// must keep its energy bounded under a CFL-stable step).
class WaveGrid {
 public:
  /// `dims` — grid points per axis; `dx` — spacing; `dt` — time step;
  /// `c` — wave speed.  Requires CFL stability dt <= dx / (c * sqrt(3)).
  WaveGrid(h5::Dims dims, double dx, double dt, double wave_speed);

  /// Seeds a Gaussian displacement pulse in the grid centre.
  void seed_pulse(double amplitude, double width);

  /// Advances one leapfrog step with the 4th-order stencil.
  void step();

  double time() const { return time_; }
  const h5::Dims& dims() const { return dims_; }
  const std::vector<float>& displacement() const { return u_; }

  /// Discrete field energy (kinetic + potential proxy); bounded for a
  /// stable configuration.
  double energy() const;

 private:
  h5::Dims dims_;
  double dx_;
  double dt_;
  double c_;
  double time_ = 0.0;
  std::vector<float> u_prev_;
  std::vector<float> u_;
  std::vector<float> u_next_;

  std::size_t index(std::uint64_t i, std::uint64_t j, std::uint64_t k) const;
};

}  // namespace apio::workloads
