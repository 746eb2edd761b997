#include "workloads/eqsim.h"

#include <cmath>

#include "common/error.h"

namespace apio::workloads {

WaveGrid::WaveGrid(h5::Dims dims, double dx, double dt, double wave_speed)
    : dims_(std::move(dims)), dx_(dx), dt_(dt), c_(wave_speed) {
  APIO_REQUIRE(dims_.size() == 3, "WaveGrid is 3-D");
  for (std::uint64_t d : dims_) {
    APIO_REQUIRE(d >= 9, "WaveGrid needs >= 9 points per axis for the 4th-order stencil");
  }
  APIO_REQUIRE(dx_ > 0 && dt_ > 0 && c_ > 0, "positive dx, dt, wave speed required");
  APIO_REQUIRE(dt_ <= dx_ / (c_ * std::sqrt(3.0)) + 1e-12,
               "CFL violation: dt must be <= dx / (c*sqrt(3))");
  const std::size_t n = static_cast<std::size_t>(h5::num_elements(dims_));
  u_prev_.assign(n, 0.0f);
  u_.assign(n, 0.0f);
  u_next_.assign(n, 0.0f);
}

std::size_t WaveGrid::index(std::uint64_t i, std::uint64_t j, std::uint64_t k) const {
  return static_cast<std::size_t>((i * dims_[1] + j) * dims_[2] + k);
}

void WaveGrid::seed_pulse(double amplitude, double width) {
  const double ci = static_cast<double>(dims_[0]) / 2.0;
  const double cj = static_cast<double>(dims_[1]) / 2.0;
  const double ck = static_cast<double>(dims_[2]) / 2.0;
  for (std::uint64_t i = 0; i < dims_[0]; ++i) {
    for (std::uint64_t j = 0; j < dims_[1]; ++j) {
      for (std::uint64_t k = 0; k < dims_[2]; ++k) {
        const double r2 = (static_cast<double>(i) - ci) * (static_cast<double>(i) - ci) +
                          (static_cast<double>(j) - cj) * (static_cast<double>(j) - cj) +
                          (static_cast<double>(k) - ck) * (static_cast<double>(k) - ck);
        const double v = amplitude * std::exp(-r2 / (2.0 * width * width));
        u_[index(i, j, k)] = static_cast<float>(v);
        u_prev_[index(i, j, k)] = static_cast<float>(v);  // zero initial velocity
      }
    }
  }
}

void WaveGrid::step() {
  // 4th-order central second derivative: (-1/12, 4/3, -5/2, 4/3, -1/12).
  const double r = (c_ * dt_ / dx_) * (c_ * dt_ / dx_);
  const std::uint64_t ni = dims_[0];
  const std::uint64_t nj = dims_[1];
  const std::uint64_t nk = dims_[2];
  auto lap4 = [&](std::uint64_t i, std::uint64_t j, std::uint64_t k) {
    const auto u = [&](std::uint64_t a, std::uint64_t b, std::uint64_t c2) {
      return static_cast<double>(u_[index(a, b, c2)]);
    };
    const double center = u(i, j, k);
    double acc = 0.0;
    acc += (-u(i - 2, j, k) + 16 * u(i - 1, j, k) - 30 * center + 16 * u(i + 1, j, k) -
            u(i + 2, j, k)) /
           12.0;
    acc += (-u(i, j - 2, k) + 16 * u(i, j - 1, k) - 30 * center + 16 * u(i, j + 1, k) -
            u(i, j + 2, k)) /
           12.0;
    acc += (-u(i, j, k - 2) + 16 * u(i, j, k - 1) - 30 * center + 16 * u(i, j, k + 1) -
            u(i, j, k + 2)) /
           12.0;
    return acc;
  };

  // Dirichlet boundary (u = 0 on the two outermost shells).
  for (std::uint64_t i = 2; i + 2 < ni; ++i) {
    for (std::uint64_t j = 2; j + 2 < nj; ++j) {
      for (std::uint64_t k = 2; k + 2 < nk; ++k) {
        const std::size_t idx = index(i, j, k);
        const double next = 2.0 * static_cast<double>(u_[idx]) -
                            static_cast<double>(u_prev_[idx]) + r * lap4(i, j, k);
        u_next_[idx] = static_cast<float>(next);
      }
    }
  }
  std::swap(u_prev_, u_);
  std::swap(u_, u_next_);
  time_ += dt_;
}

double WaveGrid::energy() const {
  // Kinetic proxy sum((u - u_prev)/dt)^2 + potential proxy sum(grad u)^2.
  double kinetic = 0.0;
  for (std::size_t i = 0; i < u_.size(); ++i) {
    const double v = (static_cast<double>(u_[i]) - static_cast<double>(u_prev_[i])) / dt_;
    kinetic += v * v;
  }
  double potential = 0.0;
  for (std::uint64_t i = 1; i < dims_[0]; ++i) {
    for (std::uint64_t j = 1; j < dims_[1]; ++j) {
      for (std::uint64_t k = 1; k < dims_[2]; ++k) {
        const double du_i = (u_[index(i, j, k)] - u_[index(i - 1, j, k)]) / dx_;
        const double du_j = (u_[index(i, j, k)] - u_[index(i, j - 1, k)]) / dx_;
        const double du_k = (u_[index(i, j, k)] - u_[index(i, j, k - 1)]) / dx_;
        potential += du_i * du_i + du_j * du_j + du_k * du_k;
      }
    }
  }
  return 0.5 * (kinetic + c_ * c_ * potential);
}

}  // namespace apio::workloads
