// Ablation: the adaptive connector vs the fixed I/O modes.
//
// Three real-execution regimes over a throttled "PFS" (the Fig. 1
// trichotomy): compute-rich (async should win), balanced, and
// compute-starved with fast storage (sync should win — the staging copy
// is pure overhead).  The adaptive connector must track the better
// fixed mode in each regime after its short exploration phase — the
// paper's motivating "automatically enable asynchronous I/O when
// needed" behaviour (Sec. II-B).
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "common/units.h"
#include "obs/epoch_analyzer.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/adaptive_connector.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"

namespace apio {
namespace {

struct Regime {
  const char* name;
  double pfs_bandwidth;     // bytes/s; <=0 means raw memory backend
  double compute_seconds;   // per epoch
  std::uint64_t bytes;      // per epoch
  int epochs;
};

storage::BackendPtr make_backend(const Regime& regime) {
  if (regime.pfs_bandwidth <= 0) {
    return std::make_shared<storage::MemoryBackend>();
  }
  storage::ThrottleParams params;
  params.bandwidth = regime.pfs_bandwidth;
  params.time_scale = 1.0;
  return storage::BackendStack::memory().throttled(params).build();
}

enum class Mode { kSync, kAsync, kAdaptive };

double run_regime(const Regime& regime, Mode mode) {
  auto file = h5::File::create(make_backend(regime));
  std::shared_ptr<vol::Connector> connector;
  switch (mode) {
    case Mode::kSync:
      connector = std::make_shared<vol::NativeConnector>(file);
      break;
    case Mode::kAsync:
      connector = std::make_shared<vol::AsyncConnector>(file);
      break;
    case Mode::kAdaptive:
      connector = std::make_shared<vol::AdaptiveConnector>(file);
      break;
  }
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kUInt8,
      {regime.bytes * static_cast<std::uint64_t>(regime.epochs)});
  std::vector<std::uint8_t> payload(regime.bytes, 1);

  const auto t0 = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < regime.epochs; ++epoch) {
    // The adaptive connector's advisor learns t_comp from these markers.
    obs::EpochScope scope(epoch);
    std::this_thread::sleep_for(std::chrono::duration<double>(regime.compute_seconds));
    scope.compute_done();
    connector->dataset_write(
        ds,
        h5::Selection::offsets({static_cast<std::uint64_t>(epoch) * regime.bytes},
                               {regime.bytes}),
        std::as_bytes(std::span<const std::uint8_t>(payload)));
  }
  connector->wait_all();
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  connector->close();
  return total;
}

}  // namespace
}  // namespace apio

int main() {
  using namespace apio;
  bench::banner("Ablation: adaptive mode selection vs fixed modes",
                "real executions; the adaptive connector must track the "
                "better fixed mode per regime");

  const Regime regimes[] = {
      {"compute-rich (Fig. 1a)", 24.0 * kMiB, 0.06, 512 * kKiB, 10},
      {"balanced (Fig. 1b)", 24.0 * kMiB, 0.01, 512 * kKiB, 10},
      {"overhead-bound (Fig. 1c)", 0.0, 0.0005, 4 * kMiB, 10},
  };

  std::printf("%-26s | %10s %10s %10s | winner tracked?\n", "regime", "sync [s]",
              "async [s]", "adaptive");
  for (const auto& regime : regimes) {
    const double sync = run_regime(regime, Mode::kSync);
    const double async = run_regime(regime, Mode::kAsync);
    const double adaptive = run_regime(regime, Mode::kAdaptive);
    const double best = std::min(sync, async);
    // Adaptive pays an exploration epoch or two; within 25% of the best
    // fixed mode counts as tracking it.
    const bool tracked = adaptive <= best * 1.25 + 0.02;
    std::printf("%-26s | %10.3f %10.3f %10.3f | %s\n", regime.name, sync, async,
                adaptive, tracked ? "yes" : "NO");
  }
  std::printf(
      "\nshape check: adaptive approaches the better fixed mode everywhere\n"
      "without the application choosing a mode — the paper's Sec. II-B goal.\n");
  return 0;
}
