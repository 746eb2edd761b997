// EpochSimulator: executes an iterative application schedule against a
// virtual HPC system in virtual time.
//
// This is the scale substitute for the paper's Summit/Cori runs: the
// same epoch structure (compute phase, then an I/O phase through the
// sync or async VOL) is played against the machine's PFS, staging and
// GPU-link models, at any node count, with per-run contention.  The
// simulator is deliberately event-accurate about the async pipeline:
// a bounded set of staged buffers is in flight, the background stream
// drains them FIFO, and back-pressure surfaces as caller-visible
// blocking — the behaviour the real AsyncConnector (src/vol) exhibits,
// checked against it by integration tests.
#pragma once

#include <cstdint>
#include <vector>

#include "model/epoch_model.h"
#include "sim/system_spec.h"
#include "obs/record.h"

namespace apio::sim {

/// One simulated run configuration.
struct RunConfig {
  int nodes = 1;
  model::IoMode mode = model::IoMode::kSync;
  int iterations = 10;
  /// Compute-phase duration per epoch (seconds).
  double compute_seconds = 0.0;
  /// Aggregate bytes transferred per I/O phase across all ranks.
  std::uint64_t bytes_per_epoch = 0;
  storage::IoKind io_kind = storage::IoKind::kWrite;
  /// Reads in async mode use the VOL's prefetch path: the first epoch
  /// blocks (no data to prefetch from), later epochs are served from
  /// the node-local cache (BD-CATS-IO, Sec. V-A2).
  bool prefetch_reads = true;
  /// GPU-resident data: the transactional overhead additionally pays
  /// the device-to-host copy (Sec. III-B1).
  bool gpu_resident = false;
  bool pinned_host_memory = true;
  /// Staging tier of the transactional copy; the machine must support
  /// it (SystemSpec::supports).
  StagingTier staging_tier = StagingTier::kDram;
  /// Staged buffers in flight before dataset_write back-pressures.
  int staging_queue_depth = 4;
  /// Application init cost outside the I/O stack.
  double app_init_seconds = 0.0;
  /// Async VOL init/termination costs (t_init/t_term of Eq. 1; small
  /// and roughly node-count independent per the paper).
  double async_init_seconds = 0.08;
  double async_term_seconds = 0.02;
  std::uint64_t seed = 42;
  /// Override the machine's contention sigma; negative = use the spec.
  double contention_sigma_override = -1.0;
  /// Optional model feedback hook; receives one IoRecord per I/O phase.
  obs::IoObserver* observer = nullptr;
};

/// Per-epoch observation.
struct EpochRecord {
  double compute_seconds = 0.0;
  /// Caller-visible blocking time of the I/O phase (sync: full
  /// transfer; async: staging copy + any back-pressure wait).
  double io_blocking_seconds = 0.0;
  /// Time until the data was resident on the PFS.
  double io_completion_seconds = 0.0;
  /// Aggregate observed bandwidth: bytes / blocking (what the paper
  /// plots as "Aggregate bandwidth").
  double bandwidth = 0.0;
  bool served_from_cache = false;
};

/// Whole-run result.
struct RunResult {
  double total_seconds = 0.0;
  std::vector<EpochRecord> epochs;
  double contention_factor = 1.0;
  int nodes = 0;
  int ranks = 0;
  std::uint64_t bytes_per_epoch = 0;

  double peak_bandwidth() const;
  double mean_bandwidth() const;
  /// Sum of caller-visible I/O blocking over all epochs.
  double total_blocking_seconds() const;
};

class EpochSimulator {
 public:
  explicit EpochSimulator(SystemSpec spec) : spec_(std::move(spec)) {}

  RunResult run(const RunConfig& config) const;

  const SystemSpec& spec() const { return spec_; }

 private:
  SystemSpec spec_;
};

}  // namespace apio::sim
