// The four apio_e2e workloads and the per-op ladder.
//
// Every workload runs a fixed amount of work from one application
// thread plus one connector background stream, on unthrottled leaves
// (PosixBackend in the run directory, or MemoryBackend).  The seed only
// changes data values and the AMR box issue order, never sizes or
// counts, so the operation counts of two runs with the same epoch count
// are identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "probes.h"
#include "sched/fair_scheduler.h"
#include "storage/backend_stack.h"
#include "vol/async_connector.h"

namespace apio::e2e {

struct Config {
  std::uint64_t seed = 1;
  int epochs = 1;
  std::string dir;  ///< run directory for container files
  /// Traced run: the stack gets a top probe and the connector the
  /// observer.  The leaf probe is always present.
  bool traced = false;
  std::shared_ptr<RecordingObserver> observer;
  /// --self-test: flip one byte of the first verification copy.
  bool corrupt_verify = false;
  int max_threads = 2;
};

struct RunResult {
  double run_s = 0.0;               ///< first epoch -> all durable and closed
  std::vector<double> epoch_io_s;   ///< caller-visible I/O per epoch
  double tail_io_s = 0.0;           ///< caller-visible I/O after the last epoch
  std::uint64_t data_calls = 0;     ///< connector write/read/prefetch calls
  std::uint64_t bytes_written = 0;  ///< user bytes
  std::uint64_t bytes_read = 0;
  std::uint64_t failed = 0;         ///< requests that completed with an error
  std::uint64_t mismatches = 0;     ///< verified copies that differ
  storage::BackendStats leaf;       ///< the leaf backend's own counters
  storage::BackendStats leaf_probe; ///< the same traffic as the leaf probe counts it
  std::uint64_t leaf_extents = 0;
  std::vector<vol::AsyncStats> async;  ///< one per async connector
  std::optional<storage::CacheSnapshot> cache;
  std::optional<sched::SchedStats> sched;
  std::uint64_t resilient_retries = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Containers, datasets, inputs and connector: all work before the
  /// first epoch.
  virtual void setup() = 0;
  /// The timed epochs, up to every byte durable and every container
  /// closed.  Call once.
  virtual RunResult run() = 0;
  /// After run(), outside the timing: reopens every surviving container
  /// and compares it with the seeded inputs, counting mismatches.
  virtual void verify(RunResult& result) = 0;
};

/// Adds `s` to `into`, field by field.
void add_stats(storage::BackendStats& into, const storage::BackendStats& s);

const std::vector<std::string>& workload_names();

/// Epochs of a full-length run (scale 1).
int nominal_epochs(const std::string& workload);

/// Spans a traced run of one epoch records at most (buffer sizing).
std::size_t spans_per_epoch(const std::string& workload);

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config);

/// Min-of-5 closed-loop time per op of each layer row, for the
/// workload's op shape (microseconds).
struct Ladder {
  double leaf_us = 0.0;    ///< Backend::write_v with the extents h5 emits
  double h5_us = 0.0;      ///< Dataset::write_raw
  double native_us = 0.0;  ///< NativeConnector::dataset_write
  double async_us = 0.0;   ///< AsyncConnector::dataset_write + Request::wait
  double stack_us = 0.0;   ///< the same over the coupled_stack decorators
  std::uint64_t ops_per_row = 0;
};

Ladder run_ladder(const std::string& workload, const Config& config);

/// Aborts, after removing the run directory, when more than
/// `max_threads` threads are live in the process.
void enforce_thread_limit(int max_threads);

}  // namespace apio::e2e
