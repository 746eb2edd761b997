// Ablation: vectored I/O aggregation (IoVector) and the two-phase
// collective writer.
//
// A strided hyperslab over a chunked dataset is the request-per-fragment
// pattern that collapses sync bandwidth in the paper's strong-scaled
// applications: every fragment used to become its own backend call and
// pay the full per-request latency.  Two views:
//   (1) dataset path: backend calls + modelled PFS time for the same
//       strided write, scalar loop vs one vectored write_v, and the
//       vectored write again through resilient/qos/cached decorators;
//   (2) collective: 16 ranks writing interleaved slabs direct vs
//       through aggregator ranks (merged requests).
// Both views run on Throttled(Memory) with time_scale = 0, so every
// reported number is deterministic model time ("det" noise class).
#include "bench/bench_util.h"
#include "h5/file.h"
#include "pmpi/world.h"
#include "sched/fair_scheduler.h"
#include "storage/backend_stack.h"
#include "storage/memory_backend.h"
#include "vol/collective_writer.h"
#include "vol/native_connector.h"

int main() {
  using namespace apio;
  bench::banner("Ablation: vectored I/O aggregation",
                "fragmented dataset transfers coalesced into vectored "
                "backend calls");

  std::vector<bench::BenchValue> values;

  // (1) Dataset path: 64x64 int32 chunked (8x8), stride-2 hyperslab in
  // both dimensions — 1024 fragments of 1 element each.
  {
    const h5::Dims dims{64, 64};
    h5::Hyperslab slab;
    slab.start = {0, 0};
    slab.stride = {2, 2};
    slab.count = {32, 32};
    const auto selection = h5::Selection::hyperslab(slab);
    std::vector<std::int32_t> payload(32 * 32);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::int32_t>(i);
    }

    std::printf("\ndataset path (64x64 chunked 8x8, stride-2 hyperslab, "
                "1 ms/request latency):\n");
    std::printf("  %10s | %12s | %12s\n", "path", "backend ops", "model time");
    // Rows: scalar, vectored, and vectored again through the decorator
    // stack (retry, admission, write-through cache) above the throttle,
    // which must hand the batch down intact.
    const char* rows[3] = {"scalar", "vectored", "stack"};
    std::uint64_t ops[3] = {0, 0, 0};
    double seconds[3] = {0.0, 0.0, 0.0};
    for (int row = 0; row < 3; ++row) {
      storage::ThrottleParams throttle;
      throttle.bandwidth = 256.0 * kMiB;
      throttle.latency = 1e-3;
      throttle.time_scale = 0.0;  // model time only: deterministic
      auto throttled = std::make_shared<storage::ThrottledBackend>(
          std::make_shared<storage::MemoryBackend>(), throttle);
      storage::BackendPtr top = throttled;
      if (row == 2) {
        storage::CacheOptions cache;
        cache.consistency = storage::CacheConsistency::kAfterWrite;
        top = storage::BackendStack::wrap(throttled)
                  .resilient({})
                  .qos(std::make_shared<sched::FairScheduler>())
                  .cached(cache)
                  .build();
      }
      h5::FileProps props;
      props.vectored_io = row > 0;
      auto file = h5::File::create(top, props);
      auto ds = file->root().create_dataset(
          "d", h5::Datatype::kInt32, dims, h5::DatasetCreateProps::chunked({8, 8}));
      const auto before = throttled->stats();
      const double t0 = throttled->modelled_delay_seconds();
      ds.write(selection, std::span<const std::int32_t>(payload));
      ops[row] = throttled->stats().write_ops - before.write_ops;
      seconds[row] = throttled->modelled_delay_seconds() - t0;
      std::printf("  %10s | %12llu | %10.4f s\n", rows[row],
                  static_cast<unsigned long long>(ops[row]), seconds[row]);
    }
    std::printf("  %.0fx fewer requests, %.1fx less modelled PFS time.\n",
                static_cast<double>(ops[0]) / static_cast<double>(ops[1]),
                seconds[0] / seconds[1]);

    values.push_back({"scalar_write_ops", static_cast<double>(ops[0]), "ops"});
    values.push_back({"vectored_write_ops", static_cast<double>(ops[1]), "ops"});
    values.push_back({"scalar_model_seconds", seconds[0], "s"});
    values.push_back({"vectored_model_seconds", seconds[1], "s"});
    values.push_back({"stack_write_ops", static_cast<double>(ops[2]), "ops"});
    values.push_back({"stack_model_seconds", seconds[2], "s"});
  }

  // (2) Collective: 16 ranks, 2 extents each, interleaved; direct writes
  // vs two-phase aggregation over the same latency-bearing storage.
  {
    constexpr int kRanks = 16;
    constexpr std::uint64_t kPerRank = 4096;  // int32 elements
    std::printf("\ncollective (16 ranks, interleaved slabs, 2 ms/request "
                "latency):\n");
    std::printf("  %12s | %10s | %12s\n", "mode", "requests", "model time");
    for (const bool collective : {false, true}) {
      storage::ThrottleParams throttle;
      throttle.bandwidth = 64.0 * kMiB;
      throttle.latency = 2e-3;
      throttle.time_scale = 0.0;
      auto throttled = std::make_shared<storage::ThrottledBackend>(
          std::make_shared<storage::MemoryBackend>(), throttle);
      auto file = h5::File::create(throttled);
      auto connector = std::make_shared<vol::NativeConnector>(file);
      auto ds = file->root().create_dataset("d", h5::Datatype::kInt32,
                                            {kPerRank * kRanks});
      std::uint64_t requests = 0;
      pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
        const auto rank = static_cast<std::uint64_t>(comm.rank());
        std::vector<std::int32_t> mine(kPerRank,
                                       static_cast<std::int32_t>(rank));
        const std::span<const std::int32_t> view(mine);
        if (collective) {
          const vol::CollectiveExtent extent{rank * kPerRank,
                                             std::as_bytes(view)};
          vol::CollectiveWriteOptions copts;
          copts.num_aggregators = 4;
          copts.stripe_bytes = kPerRank * kRanks * sizeof(std::int32_t) / 4;
          const auto result =
              vol::collective_write(*connector, comm, ds, {&extent, 1}, copts);
          if (comm.rank() == 0) requests = result.requests_issued;
        } else {
          auto req = connector->dataset_write(
              ds, h5::Selection::offsets({rank * kPerRank}, {kPerRank}),
              std::as_bytes(view));
          req->wait();
          if (comm.rank() == 0) requests = kRanks;
        }
        comm.barrier();
      });
      std::printf("  %12s | %10llu | %10.4f s\n",
                  collective ? "two-phase" : "direct",
                  static_cast<unsigned long long>(requests),
                  throttled->modelled_delay_seconds());
      values.push_back({collective ? "collective_requests" : "direct_requests",
                        static_cast<double>(requests), "ops"});
      values.push_back({collective ? "collective_model_seconds"
                                   : "direct_model_seconds",
                        throttled->modelled_delay_seconds(), "s"});
    }
    std::printf("  aggregators merge adjacent slabs: per-request latency is\n"
                "  paid once per region instead of once per rank.\n");
  }

  return bench::record_bench_metrics("ablation_vectored_io", "default", values);
}
