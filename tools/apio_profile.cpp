// apio-profile: observability front-end for the apio stack.
//
//   apio_profile report <trace.csv>
//       Darshan-style summary of a recorded I/O trace (CSV from
//       Trace::to_csv of a vol::TraceRecorder attached with
//       connector->add_observer(recorder)): per-dataset operation
//       counts, byte volumes, blocking time, request-size histogram.
//
//   apio_profile replay <trace.csv> [--mode sync|async] [--pfs-mibps N]
//                [--chrome FILE]
//       Re-executes the trace against a synthesized twin container on a
//       throttled in-memory "PFS", with the metrics registry enabled:
//       prints the registry summary and the counts of the layers that
//       own them (see run vpic), and with --chrome records every
//       request's spans and writes them as Chrome trace_event JSON (load
//       it in chrome://tracing or Perfetto).  Dataset geometry is
//       synthesized byte-addressed; op order, sizes and inter-op gaps are
//       preserved.
//
//   apio_profile run vpic [--ranks N] [--particles N] [--steps N]
//                [--mode sync|async|adaptive] [--pfs-mibps N] [--qos]
//                [--cache MODE] [--chrome FILE] [--sample-rate N]
//                [--straggler-threshold X] [--export-prom FILE]
//                [--export-jsonl FILE] [--export-report FILE]
//       Runs the VPIC-IO checkpoint kernel over in-process MPI ranks
//       with metrics on (and every request traced for --chrome), then
//       prints the registry's histograms and the facts it has no other
//       owner for, and each count from its one owner: op counts and
//       bytes from the record stream (a vol::TraceRecorder), staging
//       and failures from AsyncStats, leaf bytes from the memory leaf's
//       BackendStats, and the sched: block from SchedStats.
//       Adaptive runs print how many writes the advisor routed each way.
//       Async runs lay out rank and stream lanes in the Chrome
//       timeline, sync runs rank lanes only.  --qos routes the PFS
//       through a sched::FairScheduler admission gate and attributes the kernel
//       to a "vpic" tenant; the report then includes a sched: block
//       (per-tenant bytes/share, queue-depth high-water mark, p50/p95/p99
//       submit->grant wait).
//       Any of the five tracing flags traces one request in every
//       --sample-rate (default 1) with obs::trace, from submission
//       through queue wait, admission, attempts and the leaf backend,
//       runs a live TelemetryExporter (--export-prom/--export-jsonl),
//       and after the run prints the critical-path analyzer's per-phase
//       self-time percentiles, per-tenant latency, stragglers over
//       --straggler-threshold x the median (with the phase that blew
//       up) and span flames for the slowest requests; --export-report
//       writes the analyzer's JSON.  A traced run that completes no
//       trace exits 1.
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
#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "sched/fair_scheduler.h"
#include "sched/report.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "storage/cached_backend.h"
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
               "[--chrome FILE] [--sample-rate N] [--straggler-threshold X] "
               "[--export-prom FILE] [--export-jsonl FILE] "
               "[--export-report FILE]\n"
               "       %s analyze [--scenario ideal|partial|slowdown|all] "
               "[--ranks N] [--epochs N] [--bytes-mib N] [--pfs-mibps N] "
               "[--chrome FILE] [--max-drift PCT]\n"
               "trace.csv is Trace::to_csv() of a vol::TraceRecorder "
               "attached with connector->add_observer(recorder)\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) throw IoError(std::string("cannot open '") + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The modelled PFS: a memory leaf under a throttle, optionally behind
/// a FairScheduler admission gate and a burst-buffer cache.
struct Pfs {
  storage::BackendPtr top;
  /// Its BackendStats are the run's one count of the bytes that
  /// reached storage.
  std::shared_ptr<storage::MemoryBackend> leaf;
};

Pfs make_pfs(double mibps, sched::FairSchedulerPtr scheduler = nullptr,
             const std::string& cache_mode = "") {
  storage::ThrottleParams params;
  params.bandwidth = mibps * kMiB;
  params.latency = 2e-3;
  params.time_scale = 1.0;
  auto leaf = std::make_shared<storage::MemoryBackend>();
  auto stack = storage::BackendStack::wrap(leaf).throttled(params);
  if (scheduler != nullptr) stack.qos(scheduler);
  if (!cache_mode.empty()) {
    storage::CacheOptions options;
    APIO_REQUIRE(
        storage::parse_cache_consistency(cache_mode, options.consistency),
        "unknown cache consistency mode '" + cache_mode + "'");
    stack.cached(options);
  }
  return {stack.build(), std::move(leaf)};
}

/// Turns the registry on and resets it, so one invocation's numbers
/// never leak into the next.
void enable_observability() {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
}

/// Starts a fresh trace ring recording 1-in-`sampling_period` requests.
void start_tracing(int sampling_period) {
  auto& collector = obs::trace::TraceCollector::instance();
  collector.clear();
  collector.set_sampling_period(static_cast<std::uint64_t>(sampling_period));
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

/// Burst-buffer cache summary: staged bytes, hit/miss split, drain
/// volume, failures, from the cache's own counters plus the dirty-bytes
/// gauge's high-water mark.  Printed only when a CachedBackend was in
/// the stack, so cacheless profiles stay unchanged.
void print_cache_report(const storage::CachedBackend& cache,
                        const obs::RegistrySnapshot& snap) {
  const auto c = cache.cache_snapshot();
  const auto staged = cache.stats();
  std::printf("cache:\n");
  std::printf("  staged %s in %llu writes\n",
              format_bytes(staged.bytes_written).c_str(),
              static_cast<unsigned long long>(staged.write_ops));
  const double lookups = static_cast<double>(c.hits + c.misses);
  std::printf("  hits %llu / misses %llu (%.1f%% hit rate, %s served "
              "from staging)\n",
              static_cast<unsigned long long>(c.hits),
              static_cast<unsigned long long>(c.misses),
              lookups > 0.0 ? 100.0 * static_cast<double>(c.hits) / lookups : 0.0,
              format_bytes(c.hit_bytes).c_str());
  std::printf("  drains %llu (%s to the PFS tier)\n",
              static_cast<unsigned long long>(c.flushes),
              format_bytes(c.flushed_bytes).c_str());
  if (c.evictions > 0) {
    std::printf("  evictions %llu (%s written back under capacity "
                "pressure)\n",
                static_cast<unsigned long long>(c.evictions),
                format_bytes(c.writeback_bytes).c_str());
  }
  if (c.flush_failures > 0) {
    std::printf("  flush failures %llu (dirty set retained and retried)\n",
                static_cast<unsigned long long>(c.flush_failures));
  }
  if (c.lost_bytes > 0) {
    std::printf("  LOST %s (undrained dirty data at cache teardown)\n",
                format_bytes(c.lost_bytes).c_str());
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

/// The registry summary, then each count from the layer that owns it.
/// `async` is null for a sync run and `scheduler` without --qos.
void print_observability_report(const vol::Trace& records, const Pfs& pfs,
                                const vol::AsyncStats* async,
                                const sched::FairScheduler* scheduler) {
  const auto snap = obs::Registry::instance().snapshot();
  std::fputs(snap.summary().c_str(), stdout);

  // Indexed by IoOp: write, read, prefetch, flush.
  unsigned long long ops[4] = {};
  std::uint64_t bytes[4] = {};
  for (const auto& e : records.events()) {
    ++ops[static_cast<int>(e.op)];
    bytes[static_cast<int>(e.op)] += e.bytes;
  }
  std::printf("records: %llu writes (%s), %llu reads (%s), %llu prefetches, "
              "%llu flushes\n",
              ops[0], format_bytes(bytes[0]).c_str(), ops[1],
              format_bytes(bytes[1]).c_str(), ops[2], ops[3]);
  if (async != nullptr) {
    std::printf("vol.async: %llu writes / %s staged, %llu failed ops, "
                "prefetch cache %llu hits / %llu misses\n",
                static_cast<unsigned long long>(async->writes_enqueued),
                format_bytes(async->bytes_staged).c_str(),
                static_cast<unsigned long long>(async->failed_ops),
                static_cast<unsigned long long>(async->cache_hits),
                static_cast<unsigned long long>(async->cache_misses));
  }
  const auto leaf = pfs.leaf->stats();
  std::printf("storage: leaf wrote %s in %llu ops, read %s in %llu ops\n",
              format_bytes(leaf.bytes_written).c_str(),
              static_cast<unsigned long long>(leaf.write_ops),
              format_bytes(leaf.bytes_read).c_str(),
              static_cast<unsigned long long>(leaf.read_ops));
  // The cache, when there is one, is the outermost layer.
  if (const auto* cache =
          dynamic_cast<const storage::CachedBackend*>(pfs.top.get())) {
    print_cache_report(*cache, snap);
  }
  if (scheduler != nullptr) {
    std::fputs(sched::render_sched_report(scheduler->stats()).c_str(), stdout);
  }
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
    vol::IoRecord b = e;
    if (e.op != vol::IoOp::kFlush) {
      auto& extent = extents[e.dataset_path];
      extent = std::max(extent, std::max<std::uint64_t>(e.bytes, 1));
      b.selection = vol::selection_to_token(
          e.bytes > 0 ? h5::Selection::offsets({0}, {e.bytes}) : h5::Selection::all());
    }
    rewritten.append(std::move(b));
  }
  return rewritten;
}

int cmd_replay(const vol::Trace& trace, const std::string& mode, double mibps,
               const std::string& chrome_path) {
  std::map<std::string, std::uint64_t> extents;
  const vol::Trace replayable = byte_addressed(trace, extents);

  const Pfs pfs = make_pfs(mibps);
  auto file = h5::File::create(pfs.top);
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
  std::shared_ptr<vol::AsyncConnector> async;
  if (mode == "async") {
    async = std::make_shared<vol::AsyncConnector>(file);
    connector = async;
  } else {
    connector = std::make_shared<vol::NativeConnector>(file);
  }
  auto recorder = std::make_shared<vol::TraceRecorder>();
  connector->add_observer(recorder);

  vol::ReplayOptions options;
  options.time_scale = 1.0;
  const auto result = replay_trace(replayable, *connector, options);
  connector->wait_all();
  const auto async_stats = async != nullptr ? async->stats() : vol::AsyncStats{};
  connector->close();
  obs::set_enabled(false);
  const auto traces = stop_tracing();

  std::printf("replayed %zu ops (%s written, %s read) in %s; blocking %s\n",
              result.operations, format_bytes(result.bytes_written).c_str(),
              format_bytes(result.bytes_read).c_str(),
              format_seconds(result.total_seconds).c_str(),
              format_seconds(result.blocking_seconds).c_str());
  print_observability_report(recorder->trace(), pfs,
                             async != nullptr ? &async_stats : nullptr, nullptr);
  if (!chrome_path.empty()) write_chrome_trace(chrome_path, traces);
  return 0;
}

/// The causal-tracing flags of `run vpic`; `on` once any is given.
struct TraceFlags {
  bool on = false;
  int sample_rate = 1;
  double straggler_threshold = 3.0;
  std::string prom_path;
  std::string jsonl_path;
  std::string report_path;
};

/// Prints the critical-path analysis of a traced run and writes the
/// exports its flags asked for.
void print_trace_report(const std::vector<obs::trace::CompletedTrace>& traces,
                        const TraceFlags& tracing,
                        const obs::trace::TelemetryExporter& exporter) {
  obs::trace::CriticalPathAnalyzer analyzer(traces);
  std::printf("tracing: sampling 1-in-%d\n", tracing.sample_rate);
  std::fputs(analyzer.report(tracing.straggler_threshold).c_str(), stdout);
  if (!tracing.report_path.empty()) {
    std::ofstream out(tracing.report_path);
    if (!out) throw IoError("cannot write '" + tracing.report_path + "'");
    out << analyzer.to_json(tracing.straggler_threshold) << '\n';
    std::printf("trace report -> %s\n", tracing.report_path.c_str());
  }
  if (!tracing.prom_path.empty()) {
    std::printf("prometheus snapshot -> %s (%llu flushes)\n",
                tracing.prom_path.c_str(),
                static_cast<unsigned long long>(exporter.flush_count()));
  }
  if (!tracing.jsonl_path.empty()) {
    std::printf("trace jsonl -> %s\n", tracing.jsonl_path.c_str());
  }
}

int cmd_run_vpic(int ranks, std::uint64_t particles, int steps,
                 const std::string& mode, double mibps, bool qos,
                 const std::string& cache_mode, const std::string& chrome_path,
                 const TraceFlags& tracing) {
  workloads::VpicParams params;
  params.particles_per_rank = particles;
  params.time_steps = steps;
  params.compute_seconds = 0.02;
  workloads::VpicIoKernel kernel(params);

  enable_observability();
  if (tracing.on || !chrome_path.empty()) start_tracing(tracing.sample_rate);
  // --qos interposes a FairScheduler in front of the throttled PFS and
  // attributes the kernel's traffic to a "vpic" tenant, so the sched:
  // block of the report (shares, queue depths, waits) is populated.
  sched::FairSchedulerPtr scheduler;
  if (qos) {
    scheduler = std::make_shared<sched::FairScheduler>();
    scheduler->register_tenant("vpic", 1.0);
  }
  const Pfs pfs = make_pfs(mibps, scheduler, cache_mode);
  auto file = h5::File::create(pfs.top);
  std::shared_ptr<vol::Connector> connector;
  vol::AsyncConnector* async = nullptr;
  vol::AdaptiveConnector* adaptive = nullptr;
  if (mode == "sync") {
    connector = std::make_shared<vol::NativeConnector>(file);
  } else if (mode == "adaptive") {
    auto a = std::make_shared<vol::AdaptiveConnector>(file);
    adaptive = a.get();
    connector = std::move(a);
  } else {
    auto a = std::make_shared<vol::AsyncConnector>(file);
    async = a.get();
    connector = std::move(a);
  }
  auto recorder = std::make_shared<vol::TraceRecorder>();
  connector->add_observer(recorder);
  obs::trace::TelemetryExporter exporter({0.2, tracing.prom_path, tracing.jsonl_path});
  if (tracing.on) exporter.start();

  workloads::PhaseTimes result;
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    sched::ScopedSubmission tenant({qos ? "vpic" : ""});
    auto r = kernel.run(*connector, comm);
    if (comm.rank() == 0) result = r;
  });
  connector->wait_all();
  const auto async_stats = async != nullptr      ? async->stats()
                           : adaptive != nullptr ? adaptive->async_stats()
                                                 : vol::AsyncStats{};
  const vol::Trace records = recorder->trace();
  connector->close();
  exporter.stop();
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
  for (std::size_t step = 0; step < result.io_seconds.size(); ++step) {
    std::printf("  step %zu: %s aggregate\n", step,
                format_bandwidth(static_cast<double>(result.bytes_per_phase) /
                                 result.io_seconds[step])
                    .c_str());
  }
  if (adaptive != nullptr) {
    // Each write took one route, so the sync route wrote what the async
    // route did not stage.
    std::uint64_t written = 0;
    for (const auto& e : records.events()) {
      if (e.op == vol::IoOp::kWrite) written += e.bytes;
    }
    const auto routed = adaptive->adaptive_stats();
    std::printf("adaptive: %llu sync / %llu async writes (%s sync)\n",
                static_cast<unsigned long long>(routed.writes_sync),
                static_cast<unsigned long long>(routed.writes_async),
                format_bytes(written - async_stats.bytes_staged).c_str());
  }
  print_observability_report(records, pfs,
                             mode == "sync" ? nullptr : &async_stats,
                             scheduler.get());
  if (tracing.on) print_trace_report(traces, tracing, exporter);
  if (!chrome_path.empty()) write_chrome_trace(chrome_path, traces);
  return tracing.on && traces.empty() ? 1 : 0;
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
  auto file = h5::File::create(make_pfs(mibps).top);
  for (int r = 0; r < ranks; ++r) {
    file->root().create_dataset("rank" + std::to_string(r),
                                h5::Datatype::kUInt8, {bytes_per_rank});
  }
  auto connector = std::make_shared<vol::AsyncConnector>(file);
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
  TraceFlags tracing;

  auto parse_flags = [&](int start) -> bool {
    for (int i = start; i < argc; ++i) {
      const std::string flag = argv[i];
      tracing.on |= flag == "--sample-rate" || flag == "--straggler-threshold" ||
                    flag.starts_with("--export-");
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
        tracing.sample_rate = std::atoi(v);
      } else if (flag == "--straggler-threshold") {
        const char* v = next();
        if (v == nullptr) return false;
        tracing.straggler_threshold = std::atof(v);
      } else if (flag == "--export-prom") {
        const char* v = next();
        if (v == nullptr) return false;
        tracing.prom_path = v;
      } else if (flag == "--export-jsonl") {
        const char* v = next();
        if (v == nullptr) return false;
        tracing.jsonl_path = v;
      } else if (flag == "--export-report") {
        const char* v = next();
        if (v == nullptr) return false;
        tracing.report_path = v;
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
      if (ranks < 1 || steps < 1 || particles == 0 || tracing.sample_rate < 1 ||
          tracing.straggler_threshold <= 1.0) {
        return usage(argv[0]);
      }
      if (!cache_mode.empty()) {
        storage::CacheConsistency parsed;
        if (!storage::parse_cache_consistency(cache_mode, parsed)) {
          return usage(argv[0]);
        }
      }
      return cmd_run_vpic(ranks, particles, steps, mode, mibps, qos,
                          cache_mode, chrome_path, tracing);
    }
    if (cmd == "analyze") {
      ranks = 2;
      if (!parse_flags(2)) return usage(argv[0]);
      if (ranks < 1 || epochs < 1 || bytes_mib == 0) return usage(argv[0]);
      return cmd_analyze(scenario, ranks, epochs, mibps, bytes_mib,
                         chrome_path, max_drift);
    }
    return usage(argv[0]);
  } catch (const apio::Error& e) {
    std::fprintf(stderr, "apio_profile: %s\n", e.what());
    return 1;
  }
}
