// Ablation: two-phase collective buffering vs direct per-rank writes.
//
// Strong-scaled applications end up with tiny per-rank requests — the
// regime where the paper observes sync bandwidth collapse (Castro,
// EQSIM).  Collective buffering routes data through a few aggregators
// that issue large contiguous writes.  Two views:
//   (1) the PFS model: effective bandwidth for N writers of size s
//       vs A aggregators of size N*s/A (per-rank efficiency knee);
//   (2) a real execution of vol::collective_write over a
//       latency-bearing throttled backend, counting requests, bytes and
//       wall time.  Exits 1 unless each row issues one request per
//       aggregator and the dataset reads back intact.
#include "bench/bench_util.h"
#include "pmpi/world.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/collective_writer.h"
#include "vol/native_connector.h"

int main() {
  using namespace apio;
  bench::banner("Ablation: two-phase collective buffering",
                "small per-rank writes aggregated before hitting the PFS");

  // (1) Model view: Castro-like 112 MiB checkpoint on Summit, 768 writers.
  {
    const auto pfs = storage::PfsModel::summit_gpfs();
    const std::uint64_t total = 112ull * kMiB;
    const int nodes = 128;
    const int ranks = nodes * 6;
    std::printf("\nmodel view (summit, %s over %d ranks / %d nodes):\n",
                format_bytes(total).c_str(), ranks, nodes);
    std::printf("  %12s | %14s\n", "writers", "effective BW");
    for (int writers : {768, 384, 128, 32, 8}) {
      const double bw =
          pfs.effective_bandwidth(total, writers, nodes, storage::IoKind::kWrite);
      std::printf("  %12d | %14s\n", writers, format_bandwidth(bw).c_str());
    }
    std::printf("  fewer, larger requests climb the per-rank efficiency knee\n"
                "  until the node count, not the request size, limits them.\n");
  }

  // (2) Real execution: 16 ranks, latency-bearing storage.  Each rank
  // contributes one slab through vol::collective_write; the stripe is
  // one slab, so A aggregators own A regions of 16/A adjacent slabs and
  // each merges its region into one request.
  bool ok = true;
  {
    std::printf("\nreal execution (16 in-process ranks, 2 ms/request latency, "
                "32 MiB/s channel):\n");
    std::printf("  %12s | %10s | %10s | %12s\n", "aggregators", "requests",
                "bytes", "elapsed");
    constexpr int kRanks = 16;
    constexpr std::uint64_t kPerRank = 16 * 1024;  // elements (int32)
    for (int aggregators : {16, 8, 4, 2, 1}) {
      storage::ThrottleParams throttle;
      throttle.bandwidth = 32.0 * kMiB;
      throttle.latency = 2e-3;
      throttle.time_scale = 1.0;
      auto file = h5::File::create(
          storage::BackendStack::memory().throttled(throttle).build());
      vol::NativeConnector connector(file);
      auto ds = file->root().create_dataset("d", h5::Datatype::kInt32,
                                            {kPerRank * kRanks});
      vol::CollectiveWriteOptions options;
      options.stripe_bytes = kPerRank * sizeof(std::int32_t);
      options.num_aggregators = aggregators;
      vol::CollectiveWriteResult result;
      pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
        const std::uint64_t offset =
            static_cast<std::uint64_t>(comm.rank()) * kPerRank;
        std::vector<std::int32_t> values(kPerRank, comm.rank());
        const vol::CollectiveExtent slab{
            offset, std::as_bytes(std::span<const std::int32_t>(values))};
        auto r = vol::collective_write(connector, comm, ds, {&slab, 1}, options);
        if (comm.rank() == 0) result = r;
      });
      std::printf("  %12d | %10llu | %10s | %10.3f s\n", aggregators,
                  static_cast<unsigned long long>(result.requests_issued),
                  format_bytes(result.total_bytes).c_str(),
                  result.blocking_seconds);

      const auto stored = ds.read_vector<std::int32_t>(h5::Selection::all());
      bool intact = result.total_bytes == kPerRank * kRanks * sizeof(std::int32_t);
      for (std::size_t i = 0; i < stored.size(); ++i) {
        intact &= stored[i] == static_cast<std::int32_t>(i / kPerRank);
      }
      if (result.requests_issued != static_cast<std::uint64_t>(aggregators)) {
        std::printf("  FAIL: %d aggregators issued %llu requests\n", aggregators,
                    static_cast<unsigned long long>(result.requests_issued));
        ok = false;
      }
      if (!intact) {
        std::printf("  FAIL: %d aggregators: dataset did not read back intact\n",
                    aggregators);
        ok = false;
      }
    }
    std::printf("  merging adjacent slabs removes per-request latency; one\n"
                "  aggregator turns 16 requests into a single large write.\n");
  }
  return ok ? 0 : 1;
}
