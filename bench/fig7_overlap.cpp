// Fig. 7: impact of partial computation/I-O overlap — Nyx on Cori with
// the number of simulation time steps per computation phase swept from
// 1 to 192.  Fewer steps per checkpoint = more frequent I/O = less
// compute to hide behind.  Async degrades far more gracefully than sync
// until the compute phase is too short to overlap at all.  The dotted
// line is the model's predicted application duration (Eq. 1 + 2a/2b).
#include "bench/bench_util.h"
#include "workloads/nyx.h"

int main() {
  using namespace apio;
  const auto spec = sim::SystemSpec::cori_haswell();
  sim::EpochSimulator simulator(spec);
  const auto base = workloads::NyxParams::small();
  const int nodes = 32;
  const double seconds_per_step = 0.4;
  const int total_steps = 192 * 2;  // fixed simulated work

  bench::banner("Fig. 7 (" + spec.name + "): Nyx, varying steps per compute phase",
                "256^3 domain, 32 nodes, " + std::to_string(total_steps) +
                    " total time steps; fewer steps/phase = more checkpoints");

  model::ModeAdvisor advisor;
  std::printf("%12s %8s | %12s %12s | %12s %12s\n", "steps/phase", "ckpts",
              "sync [s]", "est [s]", "async [s]", "est [s]");
  std::printf("%12s %8s | %12s %12s | %12s %12s\n", "-----------", "-----",
              "--------", "-------", "---------", "-------");

  std::vector<bench::BenchValue> values;
  for (int steps_per_phase : {1, 2, 4, 8, 16, 32, 64, 96, 192}) {
    const int checkpoints = total_steps / steps_per_phase;
    workloads::NyxParams params = base;
    params.schedule.checkpoints = checkpoints;
    params.schedule.steps_per_checkpoint = steps_per_phase;

    auto run_mode = [&](model::IoMode mode) {
      auto config = workloads::NyxProxy::sim_config(spec, nodes, mode, params,
                                                    seconds_per_step);
      config.contention_sigma_override = 0.0;
      config.observer = &advisor;
      return simulator.run(config).total_seconds;
    };
    const double sync_total = run_mode(model::IoMode::kSync);
    const double async_total = run_mode(model::IoMode::kAsync);

    // Headline values for the regression gate (deterministic simulator
    // totals: fixed seed, contention sigma zeroed → "det" tolerance).
    const std::string point_tag = "steps" + std::to_string(steps_per_phase);
    values.push_back({point_tag + ".sync_total", sync_total, "s", "det"});
    values.push_back({point_tag + ".async_total", async_total, "s", "det"});

    // Model prediction of the application duration (Eq. 1).
    const std::uint64_t bytes =
        workloads::NyxProxy::sim_config(spec, nodes, model::IoMode::kSync, params)
            .bytes_per_epoch;
    const int ranks = nodes * spec.ranks_per_node;
    double sync_est = 0.0;
    double async_est = 0.0;
    if (advisor.sync_ready() && advisor.async_ready()) {
      model::AppSchedule schedule;
      schedule.iterations = checkpoints;
      schedule.epoch.t_comp = seconds_per_step * steps_per_phase;
      schedule.epoch.t_io = advisor.estimate_io_seconds(bytes, ranks);
      schedule.epoch.t_transact = advisor.estimate_transact_seconds(bytes, ranks);
      sync_est = model::app_seconds(schedule, model::IoMode::kSync);
      async_est = model::app_seconds(schedule, model::IoMode::kAsync);
    }

    std::printf("%12d %8d | %12.1f %12s | %12.1f %12s\n", steps_per_phase,
                checkpoints, sync_total,
                sync_est > 0 ? (std::to_string(sync_est).substr(0, 6)).c_str() : "-",
                async_total,
                async_est > 0 ? (std::to_string(async_est).substr(0, 6)).c_str() : "-");
  }
  std::printf(
      "\nshape check: async total stays near the compute floor until the\n"
      "compute phase is too short to overlap (1 step/phase), where both\n"
      "modes pay the full I/O cost (paper Fig. 7).\n");
  return apio::bench::record_bench_metrics("fig7_overlap", "nyx-cori-32nodes",
                                           values);
}
