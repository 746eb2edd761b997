// ablation_cache: burst-buffer write-back cache on/off x consistency
// mode, on the VPIC -> BD-CATS producer/consumer pair.
//
// A miniature VPIC producer writes two epochs (8 particle-property
// datasets each) through a storage stack whose PFS tier is a
// ThrottledBackend at 256 MiB/s with 1 ms per-request latency,
// time_scale = 0: no wall time is ever slept, and every reported
// duration is the throttle's MODELLED time — deterministic arithmetic
// over the extents that actually reached the PFS, so all values gate
// under the tight "det" tolerance.
//
// Configurations: the bare PFS (no cache) and the four CachedBackend
// consistency modes.  For each, the bench reports
//
//   app_blocked_ms  - modelled PFS time charged during the producer's
//                     own write calls (what the application waits on),
//   visible_ms      - modelled PFS time from the first epoch-0 write
//                     until a BD-CATS-style consumer can validate and
//                     read epoch 0 from the PFS tier,
//   total_ms        - modelled PFS time for the whole run inc. close,
//   checksum        - FNV-1a over every dataset byte read back from
//                     the PFS after the run (must be identical across
//                     all configurations).
//
// Self-gates: (1) post-run checksums identical everywhere; (2) the
// headline claim — kAfterEpoch's write-visible latency at least 2x
// lower than write-through's (coalesced drains amortise the per-request
// latency the write-through path pays 8 times per epoch); (3)
// epoch-aligned visibility — after epoch 0 the consumer CAN read
// kAfterWrite/kAfterEpoch output and CANNOT read kAfterClose/kAfterJob
// output.  A final section documents per-mode behaviour under a
// mid-flush PFS fault (dirty set retained, published after heal).
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/error.h"
#include "common/units.h"
#include "obs/epoch_analyzer.h"
#include "storage/backend_stack.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/throttled_backend.h"
#include "workloads/vpic_io.h"

using namespace apio;
using storage::CacheConsistency;

namespace {

constexpr int kEpochs = 2;
constexpr std::uint64_t kPropBytes = 64 * kKiB;  // one property dataset
constexpr double kHeadlineRatio = 2.0;

storage::ThrottleParams pfs_throttle() {
  storage::ThrottleParams throttle;
  throttle.bandwidth = 256.0 * kMiB;
  throttle.latency = 1e-3;
  throttle.time_scale = 0.0;  // modelled time only; nothing sleeps
  return throttle;
}

struct Config {
  std::string tag;
  std::optional<CacheConsistency> mode;  // nullopt = bare PFS
};

const std::vector<Config>& configs() {
  static const std::vector<Config> c = {
      {"nocache", std::nullopt},
      {"after_write", CacheConsistency::kAfterWrite},
      {"after_close", CacheConsistency::kAfterClose},
      {"after_epoch", CacheConsistency::kAfterEpoch},
      {"after_job", CacheConsistency::kAfterJob},
  };
  return c;
}

std::string step_dataset(int epoch, const char* prop) {
  return "step" + std::to_string(epoch) + "_" + prop;
}

/// Deterministic per-property payload (float pattern, VPIC-flavoured).
std::vector<std::uint8_t> property_payload(int epoch, int prop) {
  std::vector<std::uint8_t> data(kPropBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i * 31 + prop * 7 + epoch * 131) & 0xFF);
  }
  return data;
}

/// BD-CATS-style consumer probe: validate the container on the PFS
/// leaf and read every dataset written so far.  FormatError / IoError
/// mean the epoch is not (yet) visible there.
bool consumer_sees_epoch(const storage::BackendPtr& pfs_leaf, int epoch) {
  try {
    auto file = h5::File::open(pfs_leaf);
    for (int p = 0; p < static_cast<int>(workloads::kVpicProperties.size());
         ++p) {
      const auto want = property_payload(epoch, p);
      std::vector<std::uint8_t> got(kPropBytes);
      auto ds = file->root().open_dataset(
          step_dataset(epoch, workloads::kVpicProperties[p]));
      ds.read<std::uint8_t>(h5::Selection::all(), got);
      if (got != want) return false;
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::uint64_t container_checksum(const storage::BackendPtr& pfs_leaf) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto file = h5::File::open(pfs_leaf);
  for (int e = 0; e < kEpochs; ++e) {
    for (const char* prop : workloads::kVpicProperties) {
      auto ds = file->root().open_dataset(step_dataset(e, prop));
      std::vector<std::uint8_t> data(kPropBytes);
      ds.read<std::uint8_t>(h5::Selection::all(), data);
      for (const std::uint8_t b : data) {
        h ^= static_cast<std::uint64_t>(b);
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

struct RunResult {
  double app_blocked_ms = 0.0;
  double visible_ms = 0.0;
  double total_ms = 0.0;
  std::uint64_t checksum = 0;
  bool epoch0_visible_mid_run = false;
};

RunResult run_config(const Config& config) {
  auto leaf = std::make_shared<storage::MemoryBackend>();
  auto throttled =
      std::make_shared<storage::ThrottledBackend>(leaf, pfs_throttle());
  auto stack = storage::BackendStack::wrap(throttled);
  if (config.mode) {
    storage::CacheOptions options;
    options.consistency = *config.mode;
    stack.cached(options);
  }
  auto backend = stack.build();
  auto cache = std::dynamic_pointer_cast<storage::CachedBackend>(backend);

  auto file = h5::File::create(backend);
  for (int e = 0; e < kEpochs; ++e) {
    for (const char* prop : workloads::kVpicProperties) {
      file->root().create_dataset(step_dataset(e, prop), h5::Datatype::kUInt8,
                                  {kPropBytes});
    }
  }

  RunResult r;
  const double t0 = throttled->modelled_delay_seconds();
  double blocked = 0.0;
  double visible_at = -1.0;
  for (int e = 0; e < kEpochs; ++e) {
    {
      obs::EpochScope epoch(e);
      for (int p = 0; p < static_cast<int>(workloads::kVpicProperties.size());
           ++p) {
        auto ds =
            file->root().open_dataset(step_dataset(e, workloads::kVpicProperties[p]));
        const double w0 = throttled->modelled_delay_seconds();
        ds.write<std::uint8_t>(h5::Selection::all(), property_payload(e, p));
        blocked += throttled->modelled_delay_seconds() - w0;
      }
      const double f0 = throttled->modelled_delay_seconds();
      file->flush();
      blocked += throttled->modelled_delay_seconds() - f0;
    }  // epoch boundary: kAfterEpoch drains here
    if (e == 0) {
      r.epoch0_visible_mid_run = consumer_sees_epoch(leaf, 0);
      if (r.epoch0_visible_mid_run && visible_at < 0.0) {
        visible_at = throttled->modelled_delay_seconds();
      }
    }
  }
  file->close();
  if (cache && cache->options().consistency == CacheConsistency::kAfterJob) {
    cache->drain();  // job teardown
  }
  if (visible_at < 0.0) visible_at = throttled->modelled_delay_seconds();

  r.app_blocked_ms = blocked * 1e3;
  r.visible_ms = (visible_at - t0) * 1e3;
  r.total_ms = (throttled->modelled_delay_seconds() - t0) * 1e3;
  r.checksum = container_checksum(leaf);
  return r;
}

/// Mid-flush fault documentation: arm an offset-range fault on the PFS
/// tier before each mode's publication trigger, show that the dirty
/// set is retained, then heal and show the data arriving intact.
void document_fault_behaviour() {
  std::printf("\n  mid-flush PFS fault (offset-range, transient):\n");
  for (const auto& config : configs()) {
    if (!config.mode) continue;
    auto leaf = std::make_shared<storage::MemoryBackend>();
    auto throttled =
        std::make_shared<storage::ThrottledBackend>(leaf, pfs_throttle());
    storage::FaultPlan plan;  // armed below, once the run is underway
    auto faulty = std::make_shared<storage::FaultyBackend>(throttled, plan);
    storage::CacheOptions options;
    options.consistency = *config.mode;
    auto backend =
        storage::BackendStack::wrap(faulty).cached(options).build();
    auto cache = std::dynamic_pointer_cast<storage::CachedBackend>(backend);

    auto file = h5::File::create(backend);
    for (int e = 0; e < kEpochs; ++e) {
      for (const char* prop : workloads::kVpicProperties) {
        file->root().create_dataset(step_dataset(e, prop),
                                    h5::Datatype::kUInt8, {kPropBytes});
      }
    }

    storage::FaultPlan armed;
    armed.fault_offset_begin = 64;  // everything past the superblock
    armed.fault_offset_end = ~std::uint64_t{0};
    armed.transient = true;

    const char* outcome = "";
    {
      obs::EpochScope epoch(0);
      auto ds = file->root().open_dataset(step_dataset(0, "x"));
      if (*config.mode == CacheConsistency::kAfterWrite) {
        faulty->set_plan(armed);
        try {
          ds.write<std::uint8_t>(h5::Selection::all(), property_payload(0, 0));
          outcome = "write unexpectedly succeeded";
        } catch (const TransientIoError&) {
          outcome = "write-through surfaced TransientIoError; bytes stay dirty";
        }
      } else {
        ds.write<std::uint8_t>(h5::Selection::all(), property_payload(0, 0));
        if (*config.mode == CacheConsistency::kAfterEpoch) {
          faulty->set_plan(armed);
          outcome = "epoch-end drain failed silently (counted); dirty retained";
        }
      }
    }
    if (*config.mode == CacheConsistency::kAfterClose ||
        *config.mode == CacheConsistency::kAfterJob) {
      faulty->set_plan(armed);
      try {
        cache->drain();
        outcome = "drain unexpectedly succeeded";
      } catch (const TransientIoError&) {
        outcome = "drain surfaced TransientIoError; dirty retained";
      }
    }

    const auto snapshot = cache->cache_snapshot();
    faulty->heal();
    cache->drain();
    std::printf("    %-11s %-62s dirty=%llu B retained, %llu B after heal\n",
                to_string(*config.mode), outcome,
                static_cast<unsigned long long>(snapshot.dirty_bytes),
                static_cast<unsigned long long>(
                    cache->cache_snapshot().dirty_bytes));
  }
}

}  // namespace

int main() {
  bench::banner("ablation_cache — burst-buffer cache tier on VPIC -> BD-CATS",
                "2 epochs x 8 property datasets x 64 KiB through a modelled "
                "256 MiB/s / 1 ms PFS; cache off vs 4 consistency modes");

  std::map<std::string, RunResult> results;
  std::vector<bench::BenchValue> values;
  std::printf("  %-12s %14s %12s %10s %18s  epoch0 mid-run\n", "config",
              "app_blocked", "visible", "total", "checksum");
  for (const auto& config : configs()) {
    const RunResult r = run_config(config);
    results[config.tag] = r;
    std::printf("  %-12s %11.3f ms %9.3f ms %7.3f ms  %016llx  %s\n",
                config.tag.c_str(), r.app_blocked_ms, r.visible_ms, r.total_ms,
                static_cast<unsigned long long>(r.checksum),
                r.epoch0_visible_mid_run ? "visible" : "not visible");
    values.push_back(
        {config.tag + ".app_blocked_ms", r.app_blocked_ms, "ms", "det"});
    values.push_back({config.tag + ".visible_ms", r.visible_ms, "ms", "det"});
    values.push_back({config.tag + ".total_ms", r.total_ms, "ms", "det"});
  }

  bool ok = true;

  // Gate 1: every configuration leaves byte-identical data on the PFS.
  for (const auto& [tag, r] : results) {
    if (r.checksum != results.at("nocache").checksum) {
      std::printf("  FAIL: %s checksum differs from nocache\n", tag.c_str());
      ok = false;
    }
  }

  // Gate 2 (headline): epoch-aligned write-back makes epoch-0 data
  // consumer-visible in at least 2x less modelled PFS time than
  // synchronous write-through.
  const double ratio =
      results.at("after_write").visible_ms / results.at("after_epoch").visible_ms;
  if (ratio < kHeadlineRatio) {
    std::printf("  FAIL: visible-latency ratio write-through/after-epoch "
                "%.2fx < %.1fx\n",
                ratio, kHeadlineRatio);
    ok = false;
  } else {
    std::printf("  PASS: epoch-aligned visibility %.2fx cheaper than "
                "write-through (>= %.1fx)\n",
                ratio, kHeadlineRatio);
  }
  values.push_back({"visible_ratio_wt_over_epoch", ratio, "x", "det"});

  // Gate 3: consistency-mode visibility at the epoch boundary.
  const bool vis_ok = results.at("after_write").epoch0_visible_mid_run &&
                      results.at("after_epoch").epoch0_visible_mid_run &&
                      results.at("nocache").epoch0_visible_mid_run &&
                      !results.at("after_close").epoch0_visible_mid_run &&
                      !results.at("after_job").epoch0_visible_mid_run;
  if (!vis_ok) {
    std::printf("  FAIL: per-mode epoch-boundary visibility is wrong\n");
    ok = false;
  } else {
    std::printf("  PASS: epoch-boundary visibility matches each mode's "
                "contract\n");
  }

  document_fault_behaviour();

  const int status =
      bench::record_bench_metrics("ablation_cache", "vpic_bdcats_2x8x64KiB",
                                  values);
  return ok ? status : 1;
}
