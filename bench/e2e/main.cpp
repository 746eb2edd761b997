// apio_e2e: end-to-end and per-layer benchmark of the real async I/O
// path (h5 -> vol -> tasking -> storage) on unthrottled leaves.
//
//   apio_e2e --workload W --seed S [--seconds T | --scale F]
//            [--trace] [--ladder] [--self-test]
//            [--dir D] [--trace-dir D]
//
// Output, one item per line:
//   metric <name> <value> <unit>   a measured metric
//   det <name> <count>             a count that repeats exactly for a
//                                  given workload and epoch count
//   check attempted=N failed=M ok=0|1
// Exit status: 0 when every output verified; 1 on a mismatch, a failed
// request or a probe-transparency violation; 2 on bad usage.  The
// process aborts when more threads are live than the machine has cores.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "timeline.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace apio::e2e {
namespace {

/// Length of a full (scale 1) run; --seconds T runs T/15 of it.
constexpr double kNominalSeconds = 15.0;
/// A run is this many identical trials of 1/kTrials of the epochs.
constexpr int kTrials = 4;
constexpr std::uint16_t kAppThread = 1;
#if defined(__SANITIZE_THREAD__)
/// The ThreadSanitizer runtime runs a background thread of its own.
constexpr int kRuntimeThreads = 1;
#else
constexpr int kRuntimeThreads = 0;
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool scale_given = false;
  bool trace = false;
  bool ladder = false;
  bool self_test = false;
  std::string dir;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "apio_e2e: %s\n"
               "usage: apio_e2e --workload W --seed S [--seconds T | --scale F]\n"
               "                [--trace] [--ladder] [--self-test] [--dir D]\n"
               "                [--trace-dir D]\n"
               "workloads:",
               problem.c_str());
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const double s = parse_number(a, value());
      if (s != std::floor(s) || s > 9.0e15) usage("--seed must be a whole number");
      o.seed = static_cast<std::uint64_t>(s);
    } else if (a == "--seconds") {
      o.scale = parse_number(a, value()) / kNominalSeconds;
      o.scale_given = true;
    } else if (a == "--scale") {
      o.scale = parse_number(a, value());
      o.scale_given = true;
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--ladder") {
      o.ladder = true;
    } else if (a == "--self-test") {
      o.self_test = true;
    } else if (a == "--dir") {
      o.dir = value();
    } else if (a == "--trace-dir") {
      o.trace_dir = value();
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage(o.workload.empty() ? "--workload is required"
                             : "unknown workload '" + o.workload + "'");
  }
  if (o.self_test && !o.scale_given) o.scale = 0.02;
  return o;
}

// ---------------------------------------------------------------------------
// Run directory: removed on every exit path, including the thread-limit
// abort.

std::string g_run_dir;

void remove_run_dir() {
  if (g_run_dir.empty()) return;
  std::error_code ec;
  fs::remove_all(g_run_dir, ec);
  g_run_dir.clear();
}

class RunDir {
 public:
  explicit RunDir(const fs::path& base) {
    const fs::path dir = base / ("apio_e2e." + std::to_string(::getpid()));
    fs::create_directories(dir);
    g_run_dir = dir.string();
  }
  ~RunDir() { remove_run_dir(); }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return g_run_dir; }
};

/// --dir, else tmpfs at /dev/shm, else $TMPDIR (or /tmp) with a notice.
fs::path pick_base(const Options& o) {
  if (!o.dir.empty()) return o.dir;
  if (fs::is_directory("/dev/shm") && ::access("/dev/shm", W_OK) == 0) {
    return "/dev/shm";
  }
  const char* tmp = std::getenv("TMPDIR");
  const fs::path base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  std::fprintf(stderr, "apio_e2e: notice: /dev/shm is unavailable; files go to %s\n",
               base.c_str());
  return base;
}

int core_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double epoch_io_ms(const RunResult& r, double q) {
  std::vector<double> ms;
  for (const double s : r.epoch_io_s) ms.push_back(s * 1e3);
  return percentile(ms, q);
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void det(const char* name, std::uint64_t value) {
  std::printf("det %s %llu\n", name, static_cast<unsigned long long>(value));
}

/// Identical trials of one workload: a fresh set-up, the timed epochs
/// and verification each.
struct Trials {
  std::vector<double> setup_s;
  std::vector<RunResult> runs;
};

/// Runs kTrials trials; spans record into `spans` (when not null) during
/// the timed epochs only.
Trials run_trials(const std::string& workload, const Config& cfg, SpanBuffer* spans) {
  Trials t;
  for (int i = 0; i < kTrials; ++i) {
    const std::unique_ptr<Workload> w = make_workload(workload, cfg);
    const std::int64_t t0 = now_ns();
    w->setup();
    t.setup_s.push_back(ns_to_s(now_ns() - t0));
    enforce_thread_limit(cfg.max_threads);
    set_active_spans(spans);
    RunResult r = w->run();
    set_active_spans(nullptr);
    w->verify(r);
    std::printf("trial %d setup_s=%.6f run_s=%.6f epoch_io_ms_p50=%.4f\n", i,
                t.setup_s.back(), r.run_s, epoch_io_ms(r, 50));
    t.runs.push_back(std::move(r));
  }
  return t;
}

/// Sums the counters of several trials of one workload and pools their
/// epochs, so per-layer ratios and percentiles cover every trial.
RunResult pooled(const std::vector<RunResult>& trials) {
  RunResult p;
  for (const RunResult& r : trials) {
    p.run_s += r.run_s;
    p.epoch_io_s.insert(p.epoch_io_s.end(), r.epoch_io_s.begin(), r.epoch_io_s.end());
    p.tail_io_s += r.tail_io_s;
    p.data_calls += r.data_calls;
    p.bytes_written += r.bytes_written;
    p.bytes_read += r.bytes_read;
    p.failed += r.failed;
    p.mismatches += r.mismatches;
    add_stats(p.leaf, r.leaf);
    add_stats(p.leaf_probe, r.leaf_probe);
    p.leaf_extents += r.leaf_extents;
    p.async.insert(p.async.end(), r.async.begin(), r.async.end());
    if (r.cache) {
      if (!p.cache) p.cache.emplace();
      p.cache->hits += r.cache->hits;
      p.cache->misses += r.cache->misses;
      p.cache->evictions += r.cache->evictions;
      p.cache->flushed_bytes += r.cache->flushed_bytes;
    }
    if (r.sched) {
      if (!p.sched) p.sched.emplace();
      p.sched->dispatched_ops += r.sched->dispatched_ops;
      for (const auto& [name, tenant] : r.sched->tenants) {
        for (int lane = 0; lane < sched::kLanes; ++lane) {
          auto& into = p.sched->tenants[name].wait_samples[lane];
          into.insert(into.end(), tenant.wait_samples[lane].begin(),
                      tenant.wait_samples[lane].end());
        }
      }
    }
    p.resilient_retries += r.resilient_retries;
  }
  return p;
}

double best_run_s(const Trials& t) {
  double best = 1e300;
  for (const RunResult& r : t.runs) best = std::min(best, r.run_s);
  return best;
}

double observed_gbps(const RunResult& r) {
  double io_s = r.tail_io_s;
  for (const double s : r.epoch_io_s) io_s += s;
  return ratio(static_cast<double>(r.bytes_written + r.bytes_read), io_s) / 1e9;
}

/// Metrics of the untraced trials.  Timing metrics report the best
/// trial: interference from other work on a shared machine only ever
/// adds time, so the least disturbed of several identical trials is the
/// value that reproduces.  Set-up time is the median over the trials'
/// set-ups.
std::vector<Metric> untraced_metrics(const Trials& t, const RunResult& all,
                                     double rss_mib) {
  double p50 = 1e300;
  double gbps = 0.0;
  for (const RunResult& r : t.runs) {
    p50 = std::min(p50, epoch_io_ms(r, 50));
    gbps = std::max(gbps, observed_gbps(r));
  }
  return {
      {"setup_s", percentile(t.setup_s, 50), "s"},
      {"run_s", best_run_s(t), "s"},
      {"epoch_io_ms_p50", p50, "ms"},
      {"observed_GBps", gbps, "GB/s"},
      {"peak_rss_MiB", rss_mib, "MiB"},
      {"op_error_rate",
       ratio(static_cast<double>(all.failed + all.mismatches),
             static_cast<double>(all.data_calls)),
       "ratio"},
  };
}

void print_det(const RunResult& r) {
  det("calls", r.data_calls);
  det("user.bytes_written", r.bytes_written);
  det("user.bytes_read", r.bytes_read);
  det("leaf.write_ops", r.leaf.write_ops);
  det("leaf.read_ops", r.leaf.read_ops);
  det("leaf.bytes_written", r.leaf.bytes_written);
  det("leaf.bytes_read", r.leaf.bytes_read);
  det("leaf.extents", r.leaf_extents);
  det("leaf.flushes_absorbed", r.leaf_probe.flushes);
  std::uint64_t prefetch_hits = 0;
  std::uint64_t retries = r.resilient_retries;
  for (const auto& a : r.async) {
    prefetch_hits += a.cache_hits;
    retries += a.retries;
  }
  det("vol.prefetch_hits", prefetch_hits);
  det("resilience.retries", retries);
  if (r.cache) {
    det("cache.hits", r.cache->hits);
    det("cache.misses", r.cache->misses);
    det("cache.evictions", r.cache->evictions);
    det("cache.flushed_bytes", r.cache->flushed_bytes);
  }
  if (r.sched) det("sched.dispatched_ops", r.sched->dispatched_ops);
}

bool same_leaf_traffic(const storage::BackendStats& a, const storage::BackendStats& b) {
  return a.read_ops == b.read_ops && a.write_ops == b.write_ops &&
         a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.flushes == b.flushes;
}

std::vector<Metric> ladder_metrics(const Ladder& l) {
  return {
      {"ladder.leaf_us", l.leaf_us, "us"},
      {"ladder.h5_us", l.h5_us, "us"},
      {"ladder.native_us", l.native_us, "us"},
      {"ladder.async_us", l.async_us, "us"},
      {"ladder.stack_us", l.stack_us, "us"},
  };
}

/// Per-layer metrics over the pooled traced trials; epoch_io_ms_p90
/// pools the untraced trials, and the probe overhead compares the best
/// traced trial with the best untraced one.
std::vector<Metric> per_layer(const Trials& base_trials, const Trials& traced_trials,
                              const TimelineSummary& s,
                              const std::vector<OpRecord>& records, const Ladder& l) {
  const RunResult base = pooled(base_trials.runs);
  const RunResult t = pooled(traced_trials.runs);
  std::vector<double> lags;
  for (const auto& rec : records) {
    if ((rec.op == vol::IoOp::kWrite || rec.op == vol::IoOp::kRead) && !rec.cache_hit) {
      lags.push_back(rec.completion_s - rec.blocking_s);
    }
  }
  std::uint64_t hwm = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t retries = t.resilient_retries;
  std::vector<double> init;
  std::vector<double> term;
  for (const auto& a : t.async) {
    hwm = std::max(hwm, a.staged_high_watermark);
    hits += a.cache_hits;
    misses += a.cache_misses;
    retries += a.retries;
    init.push_back(a.init_seconds);
    term.push_back(a.term_seconds);
  }
  std::vector<double> waits;
  if (t.sched) {
    for (const auto& [name, tenant] : t.sched->tenants) {
      for (const auto& lane : tenant.wait_samples) {
        waits.insert(waits.end(), lane.begin(), lane.end());
      }
    }
  }
  const auto& leaf = t.leaf_probe;
  const double calls = static_cast<double>(t.data_calls);
  const double user_written = static_cast<double>(t.bytes_written);
  const double cache_lookups =
      t.cache ? static_cast<double>(t.cache->hits + t.cache->misses) : 0.0;

  std::vector<Metric> m = {
      {"epoch_io_ms_p90", epoch_io_ms(base, 90), "ms"},
      {"vol.call_us_p50", percentile(s.call_s, 50) * 1e6, "us"},
      {"vol.call_us_p99", percentile(s.call_s, 99) * 1e6, "us"},
      {"vol.stage_GBps", ratio(user_written, s.write_call_s) / 1e9, "GB/s"},
      {"vol.complete_lag_ms_p50", percentile(lags, 50) * 1e3, "ms"},
      {"vol.staged_hwm_MiB", static_cast<double>(hwm) / kMiB, "MiB"},
      {"vol.init_ms", percentile(init, 50) * 1e3, "ms"},
      {"vol.term_ms", percentile(term, 50) * 1e3, "ms"},
      {"vol.prefetch_hit_ratio",
       ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio"},
      {"h5.extents_per_call", ratio(static_cast<double>(t.leaf_extents), calls), "count"},
      {"h5.leaf_calls_per_call",
       ratio(static_cast<double>(leaf.read_ops + leaf.write_ops), calls), "count"},
      {"h5.metadata_bytes", static_cast<double>(leaf.bytes_written) - user_written, "B"},
      {"storage.leaf_busy_s", s.leaf_busy_s, "s"},
      {"storage.leaf_GBps",
       ratio(static_cast<double>(leaf.bytes_read + leaf.bytes_written), s.leaf_data_s) /
           1e9,
       "GB/s"},
      {"storage.leaf_ops", static_cast<double>(leaf.read_ops + leaf.write_ops), "count"},
      {"storage.write_amplification",
       ratio(static_cast<double>(leaf.bytes_written), user_written), "ratio"},
      {"storage.stack_self_us_p50", percentile(s.stack_self_s, 50) * 1e6, "us"},
      {"storage.cache_hit_ratio",
       t.cache ? ratio(static_cast<double>(t.cache->hits), cache_lookups) : 0.0, "ratio"},
      {"storage.cache_flushed_MiB",
       t.cache ? static_cast<double>(t.cache->flushed_bytes) / kMiB : 0.0, "MiB"},
      {"storage.cache_evictions",
       t.cache ? static_cast<double>(t.cache->evictions) : 0.0, "count"},
      {"sched.wait_us_p50", percentile(waits, 50) * 1e6, "us"},
      {"sched.wait_us_p99", percentile(waits, 99) * 1e6, "us"},
      {"sched.dispatched_ops",
       t.sched ? static_cast<double>(t.sched->dispatched_ops) : 0.0, "count"},
      {"resilience.retries", static_cast<double>(retries), "count"},
  };
  for (const auto& x : ladder_metrics(l)) m.push_back(x);
  m.push_back({"obs.probe_overhead_pct",
               100.0 * (ratio(best_run_s(traced_trials), best_run_s(base_trials)) - 1.0),
               "%"});
  m.push_back({"obs.unattributed_pct", 100.0 * ratio(s.unattributed_s, s.run_s), "%"});
  return m;
}

void write_layers_json(const std::string& path, const Options& o, int epochs,
                       const std::vector<Metric>& metrics, const TimelineSummary& s) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"epochs\":" << epochs << ",\n\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ",\n" : "\n") << "\"" << metrics[i].name << "\":{\"value\":"
        << metrics[i].value << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  out << "},\n\"self_time\":{";
  bool first = true;
  for (const auto& [name, t] : s.by_name) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\":{\"count\":" << t.count
        << ",\"total_s\":" << t.total_s << ",\"self_s\":" << t.self_s << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) std::fprintf(stderr, "apio_e2e: cannot write %s\n", path.c_str());
}

void report_trace(const SpanBuffer& spans, const RecordingObserver& observer,
                  const TimelineSummary& s) {
  std::size_t uncovered = 0;
  for (const auto& [tid, sums] : s.stream_probe_s) {
    if (sums.first < sums.second) ++uncovered;
  }
  std::printf("trace spans=%zu dropped=%llu records=%zu dropped_records=%llu\n",
              spans.size(), static_cast<unsigned long long>(spans.dropped()),
              observer.records().size(),
              static_cast<unsigned long long>(observer.dropped()));
  for (const auto& [name, t] : s.by_name) {
    std::printf("layer %-20s count=%-8llu total_s=%-10.6f self_s=%.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
  }
  std::printf("trace streams=%zu where_top_probe_time_covers_leaf_probe_time=%zu\n",
              s.stream_probe_s.size(), s.stream_probe_s.size() - uncovered);
  std::printf("trace app_self_plus_compute_share=%.4f of run_s\n",
              1.0 - ratio(s.unattributed_s, s.run_s));
}

int run_main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  thread_tag();  // the application thread is thread 1 in every trace
  const RunDir dir(pick_base(opt));

  Config cfg;
  cfg.seed = opt.seed;
  cfg.epochs = std::max(2, static_cast<int>(std::lround(
                               nominal_epochs(opt.workload) * opt.scale / kTrials)));
  cfg.dir = dir.path();
  cfg.corrupt_verify = opt.self_test;
  // Every workload needs the application thread and one stream.
  cfg.max_threads = std::max(2, core_count()) + kRuntimeThreads;
  std::printf("workload %s seed %llu trials %d epochs_per_trial %d dir %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), kTrials,
              cfg.epochs, cfg.dir.c_str());

  if (opt.ladder) {
    const Ladder l = run_ladder(opt.workload, cfg);
    print(ladder_metrics(l));
    det("ladder.ops_per_row", l.ops_per_row);
    return 0;
  }

  const Trials base = run_trials(opt.workload, cfg, nullptr);
  const RunResult base_all = pooled(base.runs);
  print(untraced_metrics(base, base_all, peak_rss_mib()));
  print_det(base_all);
  std::uint64_t attempted = base_all.data_calls;
  std::uint64_t failed = base_all.failed + base_all.mismatches;
  bool transparent = true;

  if (opt.trace) {
    const auto epochs = static_cast<std::size_t>(kTrials * cfg.epochs);
    Config tc = cfg;
    tc.traced = true;
    tc.observer = std::make_shared<RecordingObserver>(epochs * 1024 + 4096);
    SpanBuffer spans(epochs * spans_per_epoch(opt.workload) + 65536);
    const Trials traced = run_trials(opt.workload, tc, &spans);
    const RunResult traced_all = pooled(traced.runs);
    attempted += traced_all.data_calls;
    failed += traced_all.failed + traced_all.mismatches;

    transparent = same_leaf_traffic(base_all.leaf, traced_all.leaf);
    std::printf("transparency leaf_traffic_identical=%s\n", transparent ? "yes" : "NO");

    const Ladder ladder = run_ladder(opt.workload, cfg);
    det("ladder.ops_per_row", ladder.ops_per_row);
    const TimelineSummary summary = summarize(spans, kAppThread);
    const std::vector<Metric> layers =
        per_layer(base, traced, summary, tc.observer->records(), ladder);
    print(layers);
    report_trace(spans, *tc.observer, summary);

    std::error_code ec;
    fs::create_directories(opt.trace_dir, ec);
    const std::string stem = opt.trace_dir + "/apio_e2e." + opt.workload;
    if (!write_chrome_trace(spans, kAppThread, stem + ".trace.json")) {
      std::fprintf(stderr, "apio_e2e: cannot write %s.trace.json\n", stem.c_str());
    }
    write_layers_json(stem + ".layers.json", opt, cfg.epochs, layers, summary);
  }

  const bool ok = failed == 0 && transparent;
  std::printf("check attempted=%llu failed=%llu ok=%d\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), ok ? 1 : 0);
  return ok ? 0 : 1;
}

}  // namespace

void enforce_thread_limit(int max_threads) {
  const int live = live_threads();
  if (live <= max_threads) return;
  std::fprintf(stderr, "apio_e2e: %d threads live, more than the %d allowed; aborting\n",
               live, max_threads);
  remove_run_dir();
  std::abort();
}

}  // namespace apio::e2e

int main(int argc, char** argv) {
  try {
    return apio::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apio_e2e: %s\n", e.what());
    return 1;
  }
}
