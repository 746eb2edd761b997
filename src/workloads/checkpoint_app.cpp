#include "workloads/checkpoint_app.h"

#include "common/clock.h"
#include "common/error.h"
#include "obs/epoch_analyzer.h"
#include "vol/event_set.h"
#include "workloads/workload_common.h"

namespace apio::workloads {

double CheckpointRunResult::peak_bandwidth() const {
  double peak = 0.0;
  for (double t : checkpoint_io_seconds) {
    if (t > 0.0) {
      peak = std::max(peak, static_cast<double>(bytes_per_checkpoint) / t);
    }
  }
  return peak;
}

double CheckpointRunResult::mean_bandwidth() const {
  if (checkpoint_io_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (double t : checkpoint_io_seconds) {
    sum += static_cast<double>(bytes_per_checkpoint) / t;
  }
  return sum / static_cast<double>(checkpoint_io_seconds.size());
}

CheckpointRunResult run_checkpoint_app(
    vol::Connector& connector, pmpi::Communicator& comm,
    const CheckpointSchedule& schedule, std::uint64_t local_bytes_per_checkpoint,
    const std::function<void(int)>& create_meta,
    const std::function<double(int, std::vector<vol::RequestPtr>&)>& write) {
  APIO_REQUIRE(schedule.checkpoints >= 1, "need at least one checkpoint");
  APIO_REQUIRE(schedule.steps_per_checkpoint >= 1, "need >= 1 step per checkpoint");
  WallClock clock;
  const double t_start = clock.now();

  CheckpointRunResult result;
  result.bytes_per_checkpoint = comm.allreduce_sum(local_bytes_per_checkpoint);

  std::vector<vol::RequestPtr> outstanding;
  for (int c = 0; c < schedule.checkpoints; ++c) {
    // One model epoch per checkpoint: the compute phase covers the
    // simulation steps between I/O phases (epoch-analyzer markers).
    // Proxies that do real computation inside `write` (e.g. EQSIM's
    // wave stencil) set seconds_per_step to zero; skipping the marker
    // then lets the analyzer fall back to "compute ends at the first
    // I/O issue", which brackets that embedded compute correctly.
    obs::EpochScope epoch(c);
    if (schedule.seconds_per_step > 0.0) {
      simulated_compute(schedule.seconds_per_step * schedule.steps_per_checkpoint);
      epoch.compute_done();
    }

    if (comm.rank() == 0) create_meta(c);
    comm.barrier();

    const double blocking = write(c, outstanding);
    const double phase_io = comm.allreduce_max(blocking);
    if (comm.rank() == 0) result.checkpoint_io_seconds.push_back(phase_io);
    comm.barrier();
  }

  // Failure-tolerant drain: collect failures through an EventSet (H5ESwait
  // semantics) instead of letting the first failed request abort the
  // run — the surviving checkpoints are still valid.
  vol::EventSet drain;
  for (auto& req : outstanding) drain.insert(req);
  drain.wait();
  result.local_errors = drain.error_messages();
  result.failed_requests =
      comm.allreduce_sum(static_cast<std::uint64_t>(drain.num_errors()));
  comm.barrier();
  result.total_seconds = clock.now() - t_start;

  std::uint64_t n = comm.rank() == 0 ? result.checkpoint_io_seconds.size() : 0;
  n = comm.allreduce_max(n);
  result.checkpoint_io_seconds.resize(n);
  comm.bcast(std::span<double>(result.checkpoint_io_seconds), 0);
  return result;
}

}  // namespace apio::workloads
