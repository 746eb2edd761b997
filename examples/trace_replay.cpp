// Trace-and-replay example: capture an application's I/O pattern once,
// then evaluate I/O modes by replaying the trace — no application rerun
// needed.  This is the workflow the paper's methodology enables: the
// model (and here, the replayer) works from recorded I/O behaviour.
//
//   1. run a small checkpoint workload with a TraceRecorder attached
//      (connector.add_observer(recorder)),
//   2. print the Darshan-style profile of what it did,
//   3. replay the trace through the sync and the async connector over
//      the same throttled "PFS" and compare caller-visible blocking.
#include <cstdio>

#include "common/units.h"
#include "storage/memory_backend.h"
#include "storage/throttled_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "vol/trace.h"

namespace {

apio::storage::BackendPtr slow_pfs() {
  apio::storage::ThrottleParams params;
  params.bandwidth = 48.0 * apio::kMiB;
  params.latency = 1e-3;
  params.time_scale = 1.0;
  return std::make_shared<apio::storage::ThrottledBackend>(
      std::make_shared<apio::storage::MemoryBackend>(), params);
}

/// The structure both the recording and the replay containers share.
void make_structure(const apio::h5::FilePtr& file) {
  auto g = file->root().create_group("ckpt");
  g.create_dataset("density", apio::h5::Datatype::kFloat32, {3 * 128 * 1024});
  g.create_dataset("energy", apio::h5::Datatype::kFloat32, {3 * 128 * 1024});
}

}  // namespace

int main() {
  using namespace apio;

  // --- 1. record ----------------------------------------------------------
  vol::Trace trace;
  {
    auto file = h5::File::create(slow_pfs());
    make_structure(file);
    vol::NativeConnector connector(file);
    auto recorder = std::make_shared<vol::TraceRecorder>();
    connector.add_observer(recorder);
    std::vector<float> slab(128 * 1024, 1.0f);
    for (int step = 0; step < 3; ++step) {
      for (const char* name : {"density", "energy"}) {
        auto ds = file->dataset_at(std::string("ckpt/") + name);
        connector.dataset_write(
            ds,
            h5::Selection::offsets({static_cast<std::uint64_t>(step) * slab.size()},
                                   {slab.size()}),
            std::as_bytes(std::span<const float>(slab)));
      }
      connector.flush();
    }
    trace = recorder->trace();
    std::printf("recorded %zu operations\n\n", trace.size());
  }

  // --- 2. profile ----------------------------------------------------------
  vol::IoProfile profile(trace);
  std::fputs(profile.report().c_str(), stdout);

  // --- 3. replay through both modes ---------------------------------------
  std::printf("\n%8s | %14s %14s\n", "mode", "blocking [s]", "total [s]");
  for (bool async : {false, true}) {
    auto file = h5::File::create(slow_pfs());
    make_structure(file);
    std::shared_ptr<vol::Connector> connector;
    if (async) connector = std::make_shared<vol::AsyncConnector>(file);
    else connector = std::make_shared<vol::NativeConnector>(file);
    const auto result = vol::replay_trace(trace, *connector);
    std::printf("%8s | %14.3f %14.3f\n", async ? "async" : "sync",
                result.blocking_seconds, result.total_seconds);
    connector->close();
  }
  std::printf("\nthe replayed async run blocks only for staging copies; the\n"
              "trace lets us make that comparison without the application.\n");
  return 0;
}
