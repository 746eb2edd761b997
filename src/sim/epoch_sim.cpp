#include "sim/epoch_sim.h"

#include <algorithm>
#include <deque>

#include "common/error.h"

namespace apio::sim {

double RunResult::peak_bandwidth() const {
  double peak = 0.0;
  for (const auto& e : epochs) peak = std::max(peak, e.bandwidth);
  return peak;
}

double RunResult::mean_bandwidth() const {
  if (epochs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& e : epochs) sum += e.bandwidth;
  return sum / static_cast<double>(epochs.size());
}

double RunResult::total_blocking_seconds() const {
  double sum = 0.0;
  for (const auto& e : epochs) sum += e.io_blocking_seconds;
  return sum;
}

RunResult EpochSimulator::run(const RunConfig& config) const {
  APIO_REQUIRE(config.nodes >= 1, "run needs >= 1 node");
  APIO_REQUIRE(config.nodes <= spec_.max_nodes,
               "node count exceeds " + spec_.name + "'s size");
  APIO_REQUIRE(config.iterations >= 1, "run needs >= 1 iteration");
  APIO_REQUIRE(config.bytes_per_epoch > 0, "run needs a positive I/O size");
  APIO_REQUIRE(config.staging_queue_depth >= 1, "staging queue depth must be >= 1");

  const int nodes = config.nodes;
  const int ranks = nodes * spec_.ranks_per_node;
  const bool async = config.mode == model::IoMode::kAsync;

  Rng rng(config.seed);
  const ContentionModel contention =
      config.contention_sigma_override >= 0.0
          ? ContentionModel(config.contention_sigma_override,
                            config.contention_sigma_override == 0.0 ? 1.0 : 0.15)
          : spec_.contention;
  const double factor = contention.sample_run_factor(rng);

  RunResult result;
  result.nodes = nodes;
  result.ranks = ranks;
  result.bytes_per_epoch = config.bytes_per_epoch;
  result.contention_factor = factor;
  result.epochs.reserve(static_cast<std::size_t>(config.iterations));

  double now = config.app_init_seconds;
  if (async) now += config.async_init_seconds;

  // Background pipeline state (async only).
  double bg_busy_until = now;
  std::deque<double> in_flight;  // completion times of staged transfers

  const std::uint64_t per_rank_bytes =
      (config.bytes_per_epoch + ranks - 1) / static_cast<std::uint64_t>(ranks);

  APIO_REQUIRE(spec_.supports(config.staging_tier),
               spec_.name + " does not provide the requested staging tier");
  const std::uint64_t bytes_per_node =
      (config.bytes_per_epoch + nodes - 1) / static_cast<std::uint64_t>(nodes);

  auto transact_seconds = [&]() {
    double t = 0.0;
    switch (config.staging_tier) {
      case StagingTier::kDram:
        t = spec_.staging.transact_seconds(config.bytes_per_epoch, ranks, nodes);
        break;
      case StagingTier::kNodeLocalSsd:
        // Every node writes its share to its own NVMe in parallel.
        t = static_cast<double>(bytes_per_node) / spec_.ssd_node_bandwidth;
        break;
      case StagingTier::kBurstBuffer: {
        // The BB is a shared tier: per-node injection up to its cap.
        const double bw = std::min(nodes * spec_.bb_node_bandwidth,
                                   spec_.bb_aggregate_bandwidth);
        t = static_cast<double>(config.bytes_per_epoch) / bw;
        break;
      }
    }
    if (config.gpu_resident) {
      APIO_REQUIRE(spec_.has_gpus, spec_.name + " has no GPUs");
      t += spec_.gpu_link.transfer_seconds(per_rank_bytes, config.pinned_host_memory);
    }
    return t;
  };

  auto pfs_seconds = [&]() {
    return spec_.pfs.io_seconds(config.bytes_per_epoch, ranks, nodes,
                                config.io_kind, factor);
  };

  for (int iter = 0; iter < config.iterations; ++iter) {
    EpochRecord epoch;
    epoch.compute_seconds = config.compute_seconds;
    now += config.compute_seconds;

    const double io_start = now;
    if (!async) {
      const double t_io = pfs_seconds();
      now += t_io;
      epoch.io_blocking_seconds = t_io;
      epoch.io_completion_seconds = t_io;
    } else if (config.io_kind == storage::IoKind::kRead && config.prefetch_reads) {
      if (iter == 0) {
        // First read blocks: there was no prior compute phase to
        // prefetch behind (the VOL triggers prefetching after step 1).
        const double t_io = pfs_seconds();
        now += t_io;
        epoch.io_blocking_seconds = t_io;
        epoch.io_completion_seconds = t_io;
      } else {
        // Prefetch was issued during the previous compute phase; it may
        // still be in flight if compute was too short to cover it.
        const double prefetch_issue = io_start - config.compute_seconds;
        const double prefetch_start = std::max(prefetch_issue, bg_busy_until);
        const double prefetch_done = prefetch_start + pfs_seconds();
        bg_busy_until = prefetch_done;
        const double wait = std::max(0.0, prefetch_done - now);
        const double serve = transact_seconds();  // cache -> app buffer copy
        now += wait + serve;
        epoch.io_blocking_seconds = wait + serve;
        epoch.io_completion_seconds = now - io_start;
        epoch.served_from_cache = true;
      }
    } else {
      // Async write path (and non-prefetched async reads, which behave
      // identically from the caller's timing perspective).
      double wait = 0.0;
      while (!in_flight.empty() && in_flight.front() <= now) in_flight.pop_front();
      if (static_cast<int>(in_flight.size()) >= config.staging_queue_depth) {
        wait = std::max(0.0, in_flight.front() - now);
        now += wait;
        in_flight.pop_front();
      }
      const double t_transact = transact_seconds();
      now += t_transact;
      const double start_bg = std::max(now, bg_busy_until);
      const double done = start_bg + pfs_seconds();
      bg_busy_until = done;
      in_flight.push_back(done);
      epoch.io_blocking_seconds = wait + t_transact;
      epoch.io_completion_seconds = done - io_start;
    }

    epoch.bandwidth =
        static_cast<double>(config.bytes_per_epoch) / epoch.io_blocking_seconds;
    result.epochs.push_back(epoch);

    if (config.observer != nullptr) {
      obs::IoRecord record;
      record.op = config.io_kind == storage::IoKind::kWrite ? obs::IoOp::kWrite
                                                            : obs::IoOp::kRead;
      record.bytes = config.bytes_per_epoch;
      record.ranks = ranks;
      record.blocking_seconds = epoch.io_blocking_seconds;
      record.completion_seconds = epoch.io_completion_seconds;
      // The first read of a prefetched sequence is a synchronous
      // blocking operation (the paper's Sec. V-A2); report it as such so
      // it feeds the sync-rate fit, not the staging-rate fit.
      const bool first_blocking_read = async &&
                                       config.io_kind == storage::IoKind::kRead &&
                                       config.prefetch_reads && iter == 0;
      record.async = async && !first_blocking_read;
      record.cache_hit = epoch.served_from_cache;
      config.observer->on_io(record);
    }
  }

  if (async) {
    // Drain the background queue (wait_all + close) and terminate.
    now = std::max(now, bg_busy_until) + config.async_term_seconds;
  }
  result.total_seconds = now;
  return result;
}

}  // namespace apio::sim
