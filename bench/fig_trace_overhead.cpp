// fig_trace_overhead: the causal-tracing cost gate.
//
// The old gate differenced two end-to-end wall times (tracing off vs
// on) and failed when the delta exceeded 2% — but a 2% delta on a
// ~0.1 s workload is inside scheduler noise, so the gate tripped on
// roughly one run in three with no regression present.  The gate now
// separates MEASUREMENT from JUDGEMENT:
//
//   1. Work proxy (the hard 2% gate): the per-request tracing cost is
//      measured directly — an amplified calibration loop performs only
//      the tracing work the async write path does per request (mint,
//      bind, two phase records, complete; 1-in-16 sampling), min-of-N
//      over repetitions — and is compared against the workload's
//      MODELLED duration (ThrottledBackend arithmetic: kOps x (latency
//      + bytes/bandwidth), deterministic).  The noisy quantity is a
//      tight per-op cost amplified over 100k iterations, not a 2%
//      difference of two ~equal wall times.
//   2. Wall sanity (generous one-sided bound): the end-to-end runs
//      still execute, min-of-N each, and fail only past +15% — a
//      catastrophic, not statistical, threshold.
//
// A deliberate tracing slowdown still trips the gate: run with
// APIO_TRACE_INJECT_SPAN_DELAY_US=20 (TraceCollector busy-waits that
// long on every enabled start_trace) and the proxy overhead crosses
// the budget by >2x.  ci/check.sh exercises exactly that.
//
// Exported for apio_bench_compare drift tracking: the run-level wall
// times as "wall" values (generous tolerance) and the started and
// sampled trace counts as "det" values so the sampling arithmetic
// cannot silently change.  The per-op cost itself is printed but NOT
// exported — a wall measurement of ~50 ns doubles on a loaded machine,
// which would re-introduce the baseline-diff flake.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/trace_context.h"
#include "storage/memory_backend.h"
#include "storage/throttled_backend.h"
#include "vol/async_connector.h"

using namespace apio;

namespace {

constexpr int kOps = 256;
constexpr std::uint64_t kOpBytes = 64 * kKiB;
constexpr int kReps = 5;
constexpr int kCalibrationOps = 100000;
constexpr std::uint64_t kSamplingPeriod = 16;
constexpr double kOverheadBudgetPct = 2.0;   // hard gate, work proxy
constexpr double kWallBudgetPct = 15.0;      // generous one-sided sanity

storage::ThrottleParams pfs_throttle() {
  storage::ThrottleParams throttle;
  throttle.bandwidth = 256.0 * kMiB;
  throttle.latency = 2e-4;
  return throttle;
}

/// The workload's duration per the PFS timing model — deterministic
/// arithmetic, the denominator the 2% budget is taken against.
double modelled_workload_seconds() {
  const storage::ThrottleParams throttle = pfs_throttle();
  return kOps * (throttle.latency +
                 static_cast<double>(kOpBytes) / throttle.bandwidth);
}

/// One full workload run: fresh throttled PFS, fresh connector, kOps
/// staged writes, drain.  Returns the end-to-end wall time.
double run_once() {
  auto backend = std::make_shared<storage::ThrottledBackend>(
      std::make_shared<storage::MemoryBackend>(), pfs_throttle());
  auto file = h5::File::create(backend);
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kUInt8, {static_cast<std::uint64_t>(kOps) * kOpBytes});
  vol::AsyncConnector connector(file);

  const std::vector<std::byte> payload(kOpBytes, std::byte{0x5A});
  const double t0 = obs::steady_seconds();
  for (int i = 0; i < kOps; ++i) {
    connector.dataset_write(
        ds,
        h5::Selection::offsets({static_cast<std::uint64_t>(i) * kOpBytes},
                               {kOpBytes}),
        payload);
  }
  connector.wait_all();
  const double elapsed = obs::steady_seconds() - t0;
  connector.close();
  return elapsed;
}

double min_of_reps(int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double elapsed = run_once();
    std::printf("    rep %d: %.4f s\n", r + 1, elapsed);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Per-request tracing cost: kCalibrationOps iterations of exactly the
/// tracing work one async write performs (mint a sampled-1-in-16
/// context, bind it, record two phases, complete), no workload around
/// it.  The loop body with tracing enabled IS the cost being gated;
/// amplification over 100k iterations puts the measured quantity far
/// above timer and scheduler noise, and min-of-N removes the tail.
double tracing_cost_per_op_seconds() {
  auto& collector = obs::trace::TraceCollector::instance();
  double best = 0.0;
  for (int r = 0; r < kReps; ++r) {
    collector.clear();
    const double t0 = obs::steady_seconds();
    for (int i = 0; i < kCalibrationOps; ++i) {
      auto ctx = collector.start_trace();
      {
        obs::trace::ScopedTraceContext bind(ctx);
        obs::trace::record_phase(ctx, obs::trace::Phase::kSubmit, t0, 0.0,
                                 kOpBytes);
        obs::trace::record_phase(ctx, obs::trace::Phase::kBackend, t0, 0.0,
                                 kOpBytes);
      }
      collector.complete(ctx, obs::IoOp::kWrite, "bench", kOpBytes, false, t0,
                         t0);
    }
    const double per_op =
        (obs::steady_seconds() - t0) / static_cast<double>(kCalibrationOps);
    std::printf("    rep %d: %.0f ns/op\n", r + 1, per_op * 1e9);
    if (r == 0 || per_op < best) best = per_op;
  }
  collector.clear();
  return best;
}

}  // namespace

int main() {
  bench::banner("fig_trace_overhead — causal tracing cost on the async path",
                "per-request tracing work (min-of-5, 100k-op loop) vs the "
                "modelled 256 x 64 KiB workload; wall runs as sanity bound");

  auto& collector = obs::trace::TraceCollector::instance();
  collector.clear();
  collector.set_sampling_period(kSamplingPeriod);

  // --- work proxy: measured per-op tracing cost vs modelled time ----
  collector.set_enabled(true);
  std::printf("  tracing work per request (1-in-%llu sampling):\n",
              static_cast<unsigned long long>(kSamplingPeriod));
  const double cost_per_op = tracing_cost_per_op_seconds();
  collector.set_enabled(false);

  const double modelled = modelled_workload_seconds();
  const double proxy_pct =
      100.0 * (cost_per_op * kOps) / modelled;
  std::printf("  proxy: %.0f ns/op x %d ops = %.3f ms over a %.1f ms "
              "modelled workload = %.3f%%\n",
              cost_per_op * 1e9, kOps, cost_per_op * kOps * 1e3,
              modelled * 1e3, proxy_pct);

  // --- wall sanity: end-to-end min-of-N, generous one-sided bound ---
  collector.clear();
  collector.set_enabled(false);
  std::printf("  tracing off:\n");
  const double off = min_of_reps(kReps);

  collector.set_enabled(true);
  std::printf("  tracing on (1-in-%llu):\n",
              static_cast<unsigned long long>(kSamplingPeriod));
  const double on = min_of_reps(kReps);
  collector.set_enabled(false);

  const auto watermark = collector.watermark();
  const double sampled = static_cast<double>(watermark.sampled);
  const double wall_pct = 100.0 * (on - off) / off;
  std::printf("\n  off %.4f s   on %.4f s   wall delta %+.2f%%   "
              "(%llu traces started, %llu sampled)\n",
              off, on, wall_pct,
              static_cast<unsigned long long>(watermark.started),
              static_cast<unsigned long long>(watermark.sampled));

  bool ok = true;
  if (proxy_pct > kOverheadBudgetPct) {
    std::printf("  FAIL: tracing work %.3f%% of the modelled workload "
                "exceeds the %.1f%% budget\n",
                proxy_pct, kOverheadBudgetPct);
    ok = false;
  } else {
    std::printf("  PASS: tracing work %.3f%% <= %.1f%% budget\n", proxy_pct,
                kOverheadBudgetPct);
  }
  if (wall_pct > kWallBudgetPct) {
    std::printf("  FAIL: wall delta %.2f%% exceeds the generous %.1f%% "
                "sanity bound\n",
                wall_pct, kWallBudgetPct);
    ok = false;
  } else {
    std::printf("  PASS: wall delta %.2f%% within the %.1f%% sanity bound "
                "(one-sided; negative deltas are noise)\n",
                wall_pct, kWallBudgetPct);
  }
  // Sampling arithmetic gates exactly: kReps enabled runs x kOps
  // requests, every 16th sampled (counter-based, no randomness).
  const auto expect_started = static_cast<std::uint64_t>(kReps) * kOps;
  if (watermark.started != expect_started ||
      watermark.sampled != expect_started / kSamplingPeriod) {
    std::printf("  FAIL: expected %llu traces started / %llu sampled, saw "
                "%llu / %llu\n",
                static_cast<unsigned long long>(expect_started),
                static_cast<unsigned long long>(expect_started /
                                                kSamplingPeriod),
                static_cast<unsigned long long>(watermark.started),
                static_cast<unsigned long long>(watermark.sampled));
    ok = false;
  }

  // trace_cost_per_op_ns is deliberately NOT exported: it is a wall
  // measurement of a ~50 ns operation and doubles under a loaded
  // machine (e.g. full-parallel ctest), which would re-introduce the
  // exact baseline-diff flake this bench was rebuilt to remove.  It
  // feeds the deterministic proxy gate above and is printed for
  // humans; only stable run-level walls and exact counts are diffed.
  const std::vector<bench::BenchValue> values = {
      {"elapsed_off_seconds", off, "s", "wall"},
      {"elapsed_on_seconds", on, "s", "wall"},
      {"started_traces", static_cast<double>(watermark.started), "count",
       "det"},
      {"sampled_traces", sampled, "count", "det"},
  };
  const int status =
      bench::record_bench_metrics("fig_trace_overhead", "async_256x64KiB",
                                  values);
  return ok ? status : 1;
}
