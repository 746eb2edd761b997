// apio-profile: observability front-end for the apio stack.
//
//   apio_profile report <trace.csv>
//       Darshan-style summary of a recorded I/O trace (CSV produced by
//       vol::TraceRecorder / Trace::to_csv): per-dataset operation
//       counts, byte volumes, blocking time, request-size histogram.
//
//   apio_profile replay <trace.csv> [--mode sync|async] [--pfs-mibps N]
//                [--chrome FILE]
//       Re-executes the trace against a synthesized twin container on a
//       throttled in-memory "PFS", with the metrics registry enabled:
//       prints the registry summary, and with --chrome records every
//       request's spans and writes them as Chrome trace_event JSON (load
//       it in chrome://tracing or Perfetto).  Dataset geometry is
//       synthesized byte-addressed; op order, sizes and inter-op gaps are
//       preserved.
//
//   apio_profile run vpic [--ranks N] [--particles N] [--steps N]
//                [--mode sync|async|adaptive] [--pfs-mibps N] [--qos]
//                [--chrome FILE]
//       Runs the VPIC-IO checkpoint kernel over in-process MPI ranks
//       with metrics on (and every request traced for --chrome), then
//       cross-checks the registry's byte counters against the
//       connector's own AsyncStats and exits non-zero on disagreement.
//       Async runs lay out rank and stream lanes in the Chrome
//       timeline, sync runs rank lanes only.  --qos routes the PFS
//       through a sched::FairScheduler admission gate and attributes the kernel
//       to a "vpic" tenant; the report then includes a sched: block
//       (per-tenant bytes/share, p99 submit->grant wait, deadline
//       misses).
//
//   apio_profile trace [--ranks N] [--particles N] [--steps N]
//                [--pfs-mibps N] [--sample-rate N]
//                [--straggler-threshold X] [--export-prom FILE]
//                [--export-jsonl FILE] [--export-report FILE] [--chrome FILE]
//       Runs the VPIC-IO kernel under QoS with end-to-end causal
//       request tracing (obs::trace) enabled: every write carries a
//       TraceContext from submission through queue wait, admission,
//       attempts/backoff and the leaf backend.  Afterwards the
//       critical-path analyzer prints per-phase self-time percentiles,
//       per-tenant latency, stragglers (with the phase that blew up)
//       and span flames for the slowest requests.  A TelemetryExporter
//       runs live during the kernel when --export-prom/--export-jsonl
//       are given; --export-report writes the analyzer's JSON and
//       --chrome the sampled requests' spans as Chrome trace_event JSON.
//
//   apio_profile analyze [--scenario ideal|partial|slowdown|all]
//                [--ranks N] [--epochs N] [--bytes-mib N] [--pfs-mibps N]
//                [--chrome FILE] [--max-drift PCT]
//       Epoch-timeline analysis demo: runs a deterministic fig1-style
//       issue-then-overlap-then-wait workload per scenario with an
//       obs::EpochAnalyzer attached, reconstructs per-epoch t_comp /
//       t_io / t_transact from the IoRecord stream plus EpochScope
//       markers, and prints observed vs Eq. 2a/2b-predicted epoch
//       durations with the Fig. 1 classification.  --max-drift exits
//       non-zero when any scenario's worst per-epoch relative error
//       exceeds the given percentage; --chrome writes per-epoch trace
//       lanes (one scenario per file).
//
//   apio_profile <trace.csv>     (legacy alias for `report`)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "common/units.h"
#include "obs/critical_path.h"
#include "obs/epoch_analyzer.h"
#include "obs/metrics.h"
#include "obs/metrics_observer.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "sched/fair_scheduler.h"
#include "sched/report.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/adaptive_connector.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "vol/trace.h"
#include "workloads/vpic_io.h"
#include "workloads/workload_common.h"

namespace {

using namespace apio;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s report <trace.csv>\n"
               "       %s replay <trace.csv> [--mode sync|async] [--pfs-mibps N] "
               "[--chrome FILE]\n"
               "       %s run vpic [--ranks N] [--particles N] [--steps N] "
               "[--mode sync|async|adaptive] [--pfs-mibps N] [--qos] "
               "[--cache after-write|after-close|after-epoch|after-job] "
               "[--chrome FILE]\n"
               "       %s trace [--ranks N] [--particles N] [--steps N] "
               "[--pfs-mibps N] [--sample-rate N] [--straggler-threshold X] "
               "[--export-prom FILE] [--export-jsonl FILE] "
               "[--export-report FILE] [--chrome FILE]\n"
               "       %s analyze [--scenario ideal|partial|slowdown|all] "
               "[--ranks N] [--epochs N] [--bytes-mib N] [--pfs-mibps N] "
               "[--chrome FILE] [--max-drift PCT]\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) throw IoError(std::string("cannot open '") + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

storage::BackendPtr make_pfs(double mibps,
                             sched::FairSchedulerPtr scheduler = nullptr,
                             const std::string& cache_mode = "") {
  storage::ThrottleParams params;
  params.bandwidth = mibps * kMiB;
  params.latency = 2e-3;
  params.time_scale = 1.0;
  auto stack = storage::BackendStack::memory().throttled(params);
  if (scheduler != nullptr) stack.qos(scheduler);
  if (!cache_mode.empty()) {
    storage::CacheOptions options;
    APIO_REQUIRE(
        storage::parse_cache_consistency(cache_mode, options.consistency),
        "unknown cache consistency mode '" + cache_mode + "'");
    stack.cached(options);
  }
  return stack.build();
}

/// Turns the registry on and resets it, so one invocation's numbers
/// never leak into the next.
void enable_observability() {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
}

/// Starts a fresh trace ring recording 1-in-`sampling_period` requests.
void start_tracing(std::uint64_t sampling_period) {
  auto& collector = obs::trace::TraceCollector::instance();
  collector.clear();
  collector.set_sampling_period(sampling_period);
  collector.set_enabled(true);
}

/// Stops the collector and takes every completed trace from the ring.
std::vector<obs::trace::CompletedTrace> stop_tracing() {
  auto& collector = obs::trace::TraceCollector::instance();
  collector.set_enabled(false);
  return collector.drain();
}

void write_chrome_trace(const std::string& path,
                        const std::vector<obs::trace::CompletedTrace>& traces) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write '" + path + "'");
  out << obs::trace::to_chrome_json(traces);
  std::size_t spans = 0;
  for (const auto& t : traces) spans += t.spans.size();
  std::printf("Chrome trace (%zu spans from %zu requests) -> %s\n", spans,
              traces.size(), path.c_str());
}

/// Resilience summary: how much of the run was spent surviving faults.
/// Printed only when retries/degradation actually happened, so fault-free
/// profiles stay unchanged.
void print_resilience_report(const obs::RegistrySnapshot& snap) {
  const std::uint64_t retries = snap.counter_total("io.retries");
  const std::uint64_t degraded = snap.counter_total("io.degraded_ops");
  const std::uint64_t trips = snap.counter_total("io.breaker_trips");
  const std::uint64_t deadline = snap.counter_total("io.deadline_exhausted");
  const std::uint64_t failed = snap.counter_total("vol.async.failed_ops");
  if (retries + degraded + trips + deadline + failed == 0) return;

  std::printf("resilience:\n");
  double backoff = 0.0;
  auto it = snap.histograms.find("io.retry_backoff_seconds");
  if (it != snap.histograms.end()) backoff = it->second.sum_seconds;
  std::printf("  retries %llu (backoff %s)\n",
              static_cast<unsigned long long>(retries),
              format_seconds(backoff).c_str());
  if (degraded > 0) {
    std::printf("  degraded ops %llu (completed via sync fallback)\n",
                static_cast<unsigned long long>(degraded));
  }
  if (failed > 0) {
    std::printf("  failed ops %llu (policy exhausted)\n",
                static_cast<unsigned long long>(failed));
  }
  if (deadline > 0) {
    std::printf("  deadline-abandoned retries %llu\n",
                static_cast<unsigned long long>(deadline));
  }
  if (trips > 0) {
    std::printf("  breaker trips %llu\n", static_cast<unsigned long long>(trips));
  }
}

/// Burst-buffer cache summary: hit/miss split, drain volume, failures.
/// Printed only when a CachedBackend was actually in the stack, so
/// cacheless profiles stay unchanged.
void print_cache_report(const obs::RegistrySnapshot& snap) {
  const std::uint64_t hits = snap.counter_total("io.cache.hits");
  const std::uint64_t misses = snap.counter_total("io.cache.misses");
  const std::uint64_t flushes = snap.counter_total("io.cache.flushes");
  if (hits + misses + flushes == 0 &&
      snap.counters.find("io.cache.hits") == snap.counters.end()) {
    return;
  }

  std::printf("cache:\n");
  const double lookups = static_cast<double>(hits + misses);
  std::printf("  hits %llu / misses %llu (%.1f%% hit rate, %s served "
              "from staging)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              lookups > 0.0 ? 100.0 * static_cast<double>(hits) / lookups : 0.0,
              format_bytes(snap.counter_total("io.cache.hit_bytes")).c_str());
  std::printf("  drains %llu (%s to the PFS tier)\n",
              static_cast<unsigned long long>(flushes),
              format_bytes(snap.counter_total("io.cache.flushed_bytes"))
                  .c_str());
  const std::uint64_t evictions = snap.counter_total("io.cache.evictions");
  if (evictions > 0) {
    std::printf("  evictions %llu (%s written back under capacity "
                "pressure)\n",
                static_cast<unsigned long long>(evictions),
                format_bytes(snap.counter_total("io.cache.writeback_bytes"))
                    .c_str());
  }
  const std::uint64_t failures = snap.counter_total("io.cache.flush_failures");
  if (failures > 0) {
    std::printf("  flush failures %llu (dirty set retained and retried)\n",
                static_cast<unsigned long long>(failures));
  }
  const std::uint64_t lost = snap.counter_total("io.cache.lost_bytes");
  if (lost > 0) {
    std::printf("  LOST %s (undrained dirty data at cache teardown)\n",
                format_bytes(lost).c_str());
  }
  auto dirty = snap.gauges.find("io.cache.dirty_bytes");
  if (dirty != snap.gauges.end()) {
    std::printf("  dirty now %s (high-water %s)\n",
                format_bytes(static_cast<std::uint64_t>(
                                 dirty->second.value)).c_str(),
                format_bytes(static_cast<std::uint64_t>(
                                 dirty->second.high_watermark)).c_str());
  }
}

void print_observability_report() {
  const auto snap = obs::Registry::instance().snapshot();
  std::fputs(snap.summary().c_str(), stdout);
  print_resilience_report(snap);
  print_cache_report(snap);
  // Multi-tenant QoS summary (per-tenant bytes/share, wait percentile
  // spread, deadline misses); empty for non-QoS profiles.
  std::fputs(sched::render_sched_report(snap).c_str(), stdout);
}

int cmd_report(const char* csv_path) {
  const auto trace = vol::Trace::from_csv(read_file(csv_path));
  vol::IoProfile profile(trace);
  std::fputs(profile.report().c_str(), stdout);
  return 0;
}

/// Rewrites a trace into a byte-addressed twin: every dataset becomes a
/// flat uint8 array large enough for its biggest request, every dataset
/// op addresses bytes [0, bytes).  Sizes, kinds, order and timing gaps
/// are exactly the original's.
vol::Trace byte_addressed(const vol::Trace& trace,
                          std::map<std::string, std::uint64_t>& extents) {
  vol::Trace rewritten;
  for (const auto& e : trace.events()) {
    vol::TraceEvent b = e;
    if (e.kind != vol::TraceEvent::Kind::kFlush) {
      auto& extent = extents[e.dataset_path];
      extent = std::max(extent, std::max<std::uint64_t>(e.bytes, 1));
      b.selection = e.bytes > 0
                        ? h5::Selection::offsets({0}, {e.bytes})
                        : h5::Selection::all();
    }
    rewritten.append(std::move(b));
  }
  return rewritten;
}

int cmd_replay(const vol::Trace& trace, const std::string& mode, double mibps,
               const std::string& chrome_path) {
  std::map<std::string, std::uint64_t> extents;
  const vol::Trace replayable = byte_addressed(trace, extents);

  auto file = h5::File::create(make_pfs(mibps));
  for (const auto& [path, extent] : extents) {
    const std::size_t slash = path.find_last_of('/');
    auto group = slash == std::string::npos
                     ? file->root()
                     : file->ensure_path(path.substr(0, slash));
    group.create_dataset(
        slash == std::string::npos ? path : path.substr(slash + 1),
        h5::Datatype::kUInt8, {extent});
  }

  enable_observability();
  if (!chrome_path.empty()) start_tracing(1);
  std::shared_ptr<vol::Connector> connector;
  if (mode == "async") {
    connector = std::make_shared<vol::AsyncConnector>(file);
  } else {
    connector = std::make_shared<vol::NativeConnector>(file);
  }
  auto metrics = std::make_shared<obs::MetricsObserver>();
  connector->add_observer(metrics);

  vol::ReplayOptions options;
  options.time_scale = 1.0;
  const auto result = replay_trace(replayable, *connector, options);
  connector->close();
  obs::set_enabled(false);
  const auto traces = stop_tracing();

  std::printf("replayed %zu ops (%s written, %s read) in %s; blocking %s\n",
              result.operations, format_bytes(result.bytes_written).c_str(),
              format_bytes(result.bytes_read).c_str(),
              format_seconds(result.total_seconds).c_str(),
              format_seconds(result.blocking_seconds).c_str());
  print_observability_report();
  if (!chrome_path.empty()) write_chrome_trace(chrome_path, traces);
  return 0;
}

int cmd_run_vpic(int ranks, std::uint64_t particles, int steps,
                 const std::string& mode, double mibps, bool qos,
                 const std::string& cache_mode,
                 const std::string& chrome_path) {
  workloads::VpicParams params;
  params.particles_per_rank = particles;
  params.time_steps = steps;
  params.compute_seconds = 0.02;
  workloads::VpicIoKernel kernel(params);

  enable_observability();
  if (!chrome_path.empty()) start_tracing(1);
  // --qos interposes a FairScheduler in front of the throttled PFS and
  // attributes the kernel's traffic to a "vpic" tenant, so the sched:
  // block of the report (shares, waits, misses) is populated.
  sched::FairSchedulerPtr scheduler;
  if (qos) {
    scheduler = std::make_shared<sched::FairScheduler>();
    scheduler->register_tenant("vpic", 1.0);
  }
  auto file = h5::File::create(make_pfs(mibps, scheduler, cache_mode));
  std::shared_ptr<vol::Connector> connector;
  vol::AsyncConnector* async = nullptr;
  if (mode == "sync") {
    connector = std::make_shared<vol::NativeConnector>(file);
  } else if (mode == "adaptive") {
    connector = std::make_shared<vol::AdaptiveConnector>(file);
  } else {
    vol::AsyncOptions options;
    if (qos) options.tenant = "vpic";
    auto a = std::make_shared<vol::AsyncConnector>(file, options);
    async = a.get();
    connector = std::move(a);
  }
  connector->set_reported_ranks(ranks);
  auto metrics = std::make_shared<obs::MetricsObserver>();
  connector->add_observer(metrics);

  workloads::VpicRunResult result;
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    auto r = kernel.run(*connector, comm);
    if (comm.rank() == 0) result = r;
  });
  connector->wait_all();
  const auto snapshot_stats =
      async != nullptr ? async->stats() : vol::AsyncStats{};
  connector->close();
  obs::set_enabled(false);
  const auto traces = stop_tracing();

  std::printf("vpic: %d ranks x %llu particles x 8 props x %d steps (%s mode)\n",
              ranks, static_cast<unsigned long long>(particles), steps,
              mode.c_str());
  if (!cache_mode.empty()) {
    std::printf("  burst-buffer cache: %s consistency (BD-CATS-style "
                "consumers see data at that boundary)\n",
                cache_mode.c_str());
  }
  for (std::size_t step = 0; step < result.step_io_seconds.size(); ++step) {
    std::printf("  step %zu: %s aggregate\n", step,
                format_bandwidth(static_cast<double>(result.bytes_per_step) /
                                 result.step_io_seconds[step])
                    .c_str());
  }
  print_observability_report();
  if (!chrome_path.empty()) write_chrome_trace(chrome_path, traces);

  if (async != nullptr) {
    // Cross-check: the registry's staging byte counter and the observer
    // bridge must agree with the connector's own accounting.
    const auto snap = obs::Registry::instance().snapshot();
    const std::uint64_t staged = snap.counter_total("vol.async.bytes_staged");
    const std::uint64_t observed = snap.counter_total("io.bytes_written");
    if (staged != snapshot_stats.bytes_staged ||
        observed != snapshot_stats.bytes_staged) {
      std::fprintf(stderr,
                   "apio_profile: counter mismatch: registry staged=%llu "
                   "observer=%llu AsyncStats=%llu\n",
                   static_cast<unsigned long long>(staged),
                   static_cast<unsigned long long>(observed),
                   static_cast<unsigned long long>(snapshot_stats.bytes_staged));
      return 1;
    }
    std::printf("counters consistent: %s staged == AsyncStats.bytes_staged\n",
                format_bytes(staged).c_str());
  }
  return 0;
}

/// VPIC run under QoS with end-to-end causal tracing: every request's
/// TraceContext is carried from submission through queue wait,
/// admission, attempts and the leaf backend; the analyzer then
/// decomposes each request's wall time into per-phase self-time and
/// flags stragglers by the phase that blew up relative to the median.
int cmd_trace(int ranks, std::uint64_t particles, int steps, double mibps,
              int sample_rate, double straggler_threshold,
              const std::string& prom_path, const std::string& jsonl_path,
              const std::string& report_path, const std::string& chrome_path) {
  workloads::VpicParams params;
  params.particles_per_rank = particles;
  params.time_steps = steps;
  params.compute_seconds = 0.02;
  workloads::VpicIoKernel kernel(params);

  enable_observability();
  start_tracing(static_cast<std::uint64_t>(sample_rate));

  auto scheduler = std::make_shared<sched::FairScheduler>();
  scheduler->register_tenant("vpic", 1.0);
  auto file = h5::File::create(make_pfs(mibps, scheduler));
  vol::AsyncOptions options;
  options.tenant = "vpic";
  auto connector = std::make_shared<vol::AsyncConnector>(file, options);
  connector->set_reported_ranks(ranks);
  auto metrics = std::make_shared<obs::MetricsObserver>();
  connector->add_observer(metrics);

  obs::trace::TelemetryOptions telemetry;
  telemetry.interval_seconds = 0.2;
  telemetry.prom_path = prom_path;
  telemetry.jsonl_path = jsonl_path;
  obs::trace::TelemetryExporter exporter(telemetry);
  if (!prom_path.empty() || !jsonl_path.empty()) exporter.start();

  pmpi::run(ranks, [&](pmpi::Communicator& comm) { kernel.run(*connector, comm); });
  connector->wait_all();
  connector->close();
  exporter.stop();
  obs::set_enabled(false);
  const auto traces = stop_tracing();
  obs::trace::CriticalPathAnalyzer analyzer(traces);
  std::printf("vpic trace: %d ranks x %llu particles x 8 props x %d steps, "
              "sampling 1-in-%d\n",
              ranks, static_cast<unsigned long long>(particles), steps,
              sample_rate);
  std::fputs(analyzer.report(straggler_threshold).c_str(), stdout);

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) throw IoError("cannot write '" + report_path + "'");
    out << analyzer.to_json(straggler_threshold) << '\n';
    std::printf("trace report -> %s\n", report_path.c_str());
  }
  if (!prom_path.empty()) {
    std::printf("prometheus snapshot -> %s (%llu flushes)\n", prom_path.c_str(),
                static_cast<unsigned long long>(exporter.flush_count()));
  }
  if (!jsonl_path.empty()) {
    std::printf("trace jsonl -> %s\n", jsonl_path.c_str());
  }
  if (!chrome_path.empty()) write_chrome_trace(chrome_path, traces);
  return traces.empty() ? 1 : 0;
}

/// Runs one deterministic Fig. 1 scenario through the epoch analyzer:
/// per epoch each rank issues one async write (the staging copy is the
/// transactional cost), overlaps `t_comp` seconds of simulated compute,
/// then waits for its request — the paper's issue-then-overlap epoch
/// structure, for which Eq. 2b is exact in the ideal and slowdown
/// scenarios and within ~t_comp/t_io for partial overlap.
///
/// `comp_factor` scales the compute phase relative to the estimated
/// aggregate I/O time: > 1 gives Fig. 1a (ideal), a small positive
/// fraction Fig. 1b (partial), zero Fig. 1c (slowdown — the staging
/// overhead buys nothing).
int run_analyze_scenario(const std::string& scenario, int ranks, int epochs,
                         double mibps, std::uint64_t bytes_per_rank,
                         double comp_factor, const std::string& chrome_path,
                         double max_drift_pct) {
  auto file = h5::File::create(make_pfs(mibps));
  for (int r = 0; r < ranks; ++r) {
    file->root().create_dataset("rank" + std::to_string(r),
                                h5::Datatype::kUInt8, {bytes_per_rank});
  }
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  connector->set_reported_ranks(ranks);
  auto analyzer = std::make_shared<obs::EpochAnalyzer>();
  connector->add_observer(analyzer);
  analyzer->attach();

  // Estimated aggregate I/O time: the ranks' writes serialize on the
  // shared background stream against one throttled PFS.
  const double agg_io =
      static_cast<double>(bytes_per_rank) * ranks / (mibps * kMiB) +
      2e-3 * ranks;
  const double t_comp = comp_factor * agg_io;

  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    auto ds =
        connector->file()->root().open_dataset("rank" + std::to_string(comm.rank()));
    std::vector<std::byte> buffer(bytes_per_rank,
                                  std::byte{static_cast<unsigned char>(comm.rank())});
    for (int e = 0; e < epochs; ++e) {
      obs::EpochScope scope(e);
      auto request = connector->dataset_write(
          ds, h5::Selection::all(), std::span<const std::byte>(buffer));
      if (t_comp > 0.0) {
        scope.compute_start();
        workloads::simulated_compute(t_comp);
        scope.compute_done();
      }
      request->wait();
      scope.end();
      comm.barrier();
    }
  });
  connector->wait_all();
  connector->close();
  analyzer->detach();

  const obs::EpochReport report = analyzer->report();
  std::printf("\n--- scenario %s: %d ranks, %d epochs, %s/rank/epoch, "
              "t_comp = %.0f%% of est. t_io ---\n",
              scenario.c_str(), ranks, epochs,
              format_bytes(bytes_per_rank).c_str(), 100.0 * comp_factor);
  std::fputs(report.table().c_str(), stdout);
  std::fputs(report.summary().c_str(), stdout);

  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    if (!out) throw IoError("cannot write '" + chrome_path + "'");
    out << report.to_chrome_json();
    std::printf("epoch trace -> %s\n", chrome_path.c_str());
  }

  if (max_drift_pct > 0.0 &&
      100.0 * report.worst_relative_error > max_drift_pct) {
    std::fprintf(stderr,
                 "apio_profile analyze: scenario %s drift %.1f%% exceeds "
                 "--max-drift %.1f%%\n",
                 scenario.c_str(), 100.0 * report.worst_relative_error,
                 max_drift_pct);
    return 1;
  }
  return 0;
}

int cmd_analyze(const std::string& scenario, int ranks, int epochs,
                double mibps, std::uint64_t bytes_mib,
                const std::string& chrome_path, double max_drift_pct) {
  struct Scenario {
    const char* name;
    double comp_factor;
  };
  // Fig. 1: (a) compute dominates, (b) I/O dominates with a sliver of
  // compute to hide, (c) nothing to overlap — pure staging overhead.
  const std::vector<Scenario> catalog = {
      {"ideal", 2.0}, {"partial", 0.05}, {"slowdown", 0.0}};

  const std::uint64_t bytes_per_rank = bytes_mib * static_cast<std::uint64_t>(kMiB);
  int rc = 0;
  bool matched = false;
  for (const auto& s : catalog) {
    if (scenario != "all" && scenario != s.name) continue;
    matched = true;
    std::string chrome = chrome_path;
    if (!chrome.empty() && scenario == "all") {
      // One trace file per scenario: insert the name before the extension.
      const std::size_t dot = chrome.find_last_of('.');
      chrome = dot == std::string::npos
                   ? chrome + "-" + s.name
                   : chrome.substr(0, dot) + "-" + s.name + chrome.substr(dot);
    }
    rc |= run_analyze_scenario(s.name, ranks, epochs, mibps, bytes_per_rank,
                               s.comp_factor, chrome, max_drift_pct);
  }
  if (!matched) {
    std::fprintf(stderr, "apio_profile analyze: unknown scenario '%s'\n",
                 scenario.c_str());
    return 2;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];

  // Shared flag defaults.
  std::string mode = "async";
  std::string chrome_path;
  double mibps = 256.0;
  int ranks = 4;
  std::uint64_t particles = 32 * 1024;
  int steps = 3;
  std::string scenario = "all";
  std::string cache_mode;
  int epochs = 4;
  std::uint64_t bytes_mib = 16;
  double max_drift = 0.0;
  bool qos = false;
  int sample_rate = 1;
  double straggler_threshold = 3.0;
  std::string prom_path;
  std::string jsonl_path;
  std::string report_path;

  auto parse_flags = [&](int start) -> bool {
    for (int i = start; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) return nullptr;
        return argv[++i];
      };
      if (flag == "--mode") {
        const char* v = next();
        if (v == nullptr) return false;
        mode = v;
      } else if (flag == "--chrome") {
        const char* v = next();
        if (v == nullptr) return false;
        chrome_path = v;
      } else if (flag == "--pfs-mibps") {
        const char* v = next();
        if (v == nullptr) return false;
        mibps = std::atof(v);
      } else if (flag == "--ranks") {
        const char* v = next();
        if (v == nullptr) return false;
        ranks = std::atoi(v);
      } else if (flag == "--particles") {
        const char* v = next();
        if (v == nullptr) return false;
        particles = std::strtoull(v, nullptr, 10);
      } else if (flag == "--steps") {
        const char* v = next();
        if (v == nullptr) return false;
        steps = std::atoi(v);
      } else if (flag == "--scenario") {
        const char* v = next();
        if (v == nullptr) return false;
        scenario = v;
      } else if (flag == "--epochs") {
        const char* v = next();
        if (v == nullptr) return false;
        epochs = std::atoi(v);
      } else if (flag == "--bytes-mib") {
        const char* v = next();
        if (v == nullptr) return false;
        bytes_mib = std::strtoull(v, nullptr, 10);
      } else if (flag == "--max-drift") {
        const char* v = next();
        if (v == nullptr) return false;
        max_drift = std::atof(v);
      } else if (flag == "--qos") {
        qos = true;
      } else if (flag == "--cache") {
        const char* v = next();
        if (v == nullptr) return false;
        cache_mode = v;
      } else if (flag == "--sample-rate") {
        const char* v = next();
        if (v == nullptr) return false;
        sample_rate = std::atoi(v);
      } else if (flag == "--straggler-threshold") {
        const char* v = next();
        if (v == nullptr) return false;
        straggler_threshold = std::atof(v);
      } else if (flag == "--export-prom") {
        const char* v = next();
        if (v == nullptr) return false;
        prom_path = v;
      } else if (flag == "--export-jsonl") {
        const char* v = next();
        if (v == nullptr) return false;
        jsonl_path = v;
      } else if (flag == "--export-report") {
        const char* v = next();
        if (v == nullptr) return false;
        report_path = v;
      } else {
        std::fprintf(stderr, "apio_profile: unknown flag '%s'\n", flag.c_str());
        return false;
      }
    }
    return true;
  };

  try {
    if (cmd == "report") {
      if (argc != 3) return usage(argv[0]);
      return cmd_report(argv[2]);
    }
    if (cmd == "replay") {
      if (argc < 3) return usage(argv[0]);
      const auto trace = vol::Trace::from_csv(read_file(argv[2]));
      if (!parse_flags(3)) return usage(argv[0]);
      if (mode != "sync" && mode != "async") return usage(argv[0]);
      return cmd_replay(trace, mode, mibps, chrome_path);
    }
    if (cmd == "run") {
      if (argc < 3 || std::strcmp(argv[2], "vpic") != 0) return usage(argv[0]);
      if (!parse_flags(3)) return usage(argv[0]);
      if (mode != "sync" && mode != "async" && mode != "adaptive") {
        return usage(argv[0]);
      }
      if (ranks < 1 || steps < 1 || particles == 0) return usage(argv[0]);
      if (!cache_mode.empty()) {
        storage::CacheConsistency parsed;
        if (!storage::parse_cache_consistency(cache_mode, parsed)) {
          return usage(argv[0]);
        }
      }
      return cmd_run_vpic(ranks, particles, steps, mode, mibps, qos,
                          cache_mode, chrome_path);
    }
    if (cmd == "trace") {
      if (!parse_flags(2)) return usage(argv[0]);
      if (ranks < 1 || steps < 1 || particles == 0 || sample_rate < 1 ||
          straggler_threshold <= 1.0) {
        return usage(argv[0]);
      }
      return cmd_trace(ranks, particles, steps, mibps, sample_rate,
                       straggler_threshold, prom_path, jsonl_path,
                       report_path, chrome_path);
    }
    if (cmd == "analyze") {
      ranks = 2;
      if (!parse_flags(2)) return usage(argv[0]);
      if (ranks < 1 || epochs < 1 || bytes_mib == 0) return usage(argv[0]);
      return cmd_analyze(scenario, ranks, epochs, mibps, bytes_mib,
                         chrome_path, max_drift);
    }
    // Legacy: a bare CSV path behaves like `report`.
    if (argc == 2 && cmd.rfind("--", 0) != 0) return cmd_report(argv[1]);
    return usage(argv[0]);
  } catch (const apio::Error& e) {
    std::fprintf(stderr, "apio_profile: %s\n", e.what());
    return 1;
  }
}
