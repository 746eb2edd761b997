// The iterative-application I/O performance model of Sec. III-A.
//
//   t_app          = t_init + Σ t_epoch + t_term                   (Eq. 1)
//   t_sync_epoch   = t_io + t_comp                                 (Eq. 2a)
//   t_async_epoch  = max(t_comp, t_io − t_comp) + t_transact       (Eq. 2b)
//
// Eq. 2b assumes the I/O of iteration i overlaps the computation of
// iteration i+1: if computation is longer the epoch is compute-bound
// (ideal scenario, Fig. 1a); otherwise the un-overlapped remainder of
// the I/O is paid (partial overlap, Fig. 1b).  The staging copy
// t_transact is always paid, which makes async a slowdown whenever the
// achievable overlap cannot amortise it (Fig. 1c).
//
// Header-only, so obs (the epoch analyzer) can evaluate Eq. 2 without
// linking apio_model.
#pragma once

#include <algorithm>
#include <string>

#include "common/error.h"

namespace apio::model {

/// Per-epoch cost inputs (seconds).
struct EpochCosts {
  double t_comp = 0.0;      ///< computation phase (incl. communication)
  double t_io = 0.0;        ///< blocking time of the full I/O transfer
  double t_transact = 0.0;  ///< staging-copy (transactional) overhead
};

/// I/O execution mode.
enum class IoMode { kSync, kAsync };

inline std::string to_string(IoMode mode) {
  return mode == IoMode::kSync ? "sync" : "async";
}

/// Eq. 2a.
inline double sync_epoch_seconds(const EpochCosts& costs) {
  return costs.t_io + costs.t_comp;
}

/// Eq. 2b.
inline double async_epoch_seconds(const EpochCosts& costs) {
  return std::max(costs.t_comp, costs.t_io - costs.t_comp) + costs.t_transact;
}

/// Epoch duration under `mode`.
inline double epoch_seconds(const EpochCosts& costs, IoMode mode) {
  return mode == IoMode::kSync ? sync_epoch_seconds(costs)
                               : async_epoch_seconds(costs);
}

/// Speedup of async over sync for one epoch (> 1 means async wins).
inline double async_speedup(const EpochCosts& costs) {
  const double async = async_epoch_seconds(costs);
  APIO_REQUIRE(async > 0.0, "async epoch time must be positive");
  return sync_epoch_seconds(costs) / async;
}

/// The three timeline scenarios of Fig. 1.
enum class OverlapScenario {
  kIdeal,     ///< t_comp >= t_io: I/O fully hidden (Fig. 1a)
  kPartial,   ///< partially hidden, still a net win (Fig. 1b)
  kSlowdown,  ///< overhead exceeds the achievable overlap (Fig. 1c)
};

inline std::string to_string(OverlapScenario scenario) {
  switch (scenario) {
    case OverlapScenario::kIdeal: return "ideal";
    case OverlapScenario::kPartial: return "partial";
    case OverlapScenario::kSlowdown: return "slowdown";
  }
  return "?";
}

/// True when Eq. 2b < Eq. 2a: asynchronous I/O shortens the epoch.
inline bool async_is_beneficial(const EpochCosts& costs) {
  return async_epoch_seconds(costs) < sync_epoch_seconds(costs);
}

inline OverlapScenario classify_overlap(const EpochCosts& costs) {
  if (!async_is_beneficial(costs)) return OverlapScenario::kSlowdown;
  if (costs.t_comp >= costs.t_io) return OverlapScenario::kIdeal;
  return OverlapScenario::kPartial;
}

/// Whole-application schedule (Eq. 1) with uniform epochs.
struct AppSchedule {
  double t_init = 0.0;
  double t_term = 0.0;
  int iterations = 0;
  EpochCosts epoch;
};

/// Eq. 1 under `mode`: uniform epochs plus t_init and t_term.  The
/// terminal queue drain of the real async connector is not part of the
/// paper's model; the simulator (sim::EpochSimulator) accounts for it.
inline double app_seconds(const AppSchedule& schedule, IoMode mode) {
  APIO_REQUIRE(schedule.iterations >= 0, "iterations must be >= 0");
  return schedule.t_init + schedule.t_term +
         schedule.iterations * epoch_seconds(schedule.epoch, mode);
}

}  // namespace apio::model
