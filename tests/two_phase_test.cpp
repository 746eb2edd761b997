// Tests for two-phase collective buffering with one slab per rank: the
// one-extent case of vol::collective_write.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/collective_writer.h"
#include "vol/native_connector.h"
#include "vol/trace.h"

namespace apio::vol {
namespace {

h5::FilePtr mem_file() {
  return h5::File::create(std::make_shared<storage::MemoryBackend>());
}

/// Writes this rank's int32 slab at `elem_offset` through `aggregators`
/// aggregators.  The stripe is one slab, so regions split on slab
/// boundaries as rank groups would.
CollectiveWriteResult write_slab(Connector& connector, pmpi::Communicator& comm,
                                 h5::Dataset ds, std::uint64_t elem_offset,
                                 const std::vector<std::int32_t>& values,
                                 int aggregators) {
  const CollectiveExtent slab{elem_offset,
                              std::as_bytes(std::span<const std::int32_t>(values))};
  CollectiveWriteOptions options;
  options.stripe_bytes = slab.data.size();
  options.num_aggregators = aggregators;
  return collective_write(connector, comm, std::move(ds), {&slab, 1}, options);
}

/// Runs a two-phase write of `per_rank` int32 elements per rank and
/// verifies the dataset contents; returns the collective result.
CollectiveWriteResult run_collective(int ranks, int aggregators, std::uint64_t per_rank,
                                     bool async) {
  auto file = mem_file();
  std::shared_ptr<Connector> connector;
  if (async) connector = std::make_shared<AsyncConnector>(file);
  else connector = std::make_shared<NativeConnector>(file);
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kInt32, {per_rank * static_cast<std::uint64_t>(ranks)});

  CollectiveWriteResult result;
  pmpi::run(ranks, [&](pmpi::Communicator& comm) {
    const std::uint64_t offset = static_cast<std::uint64_t>(comm.rank()) * per_rank;
    std::vector<std::int32_t> values(per_rank);
    std::iota(values.begin(), values.end(), static_cast<std::int32_t>(offset));
    auto r = write_slab(*connector, comm, ds, offset, values, aggregators);
    if (comm.rank() == 0) result = r;
  });
  connector->wait_all();

  auto all = ds.read_vector<std::int32_t>(h5::Selection::all());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<std::int32_t>(i)) << "element " << i;
  }
  connector->close();
  return result;
}

/// Writes and bytes the recorder saw reach the connector.
std::pair<std::uint64_t, std::uint64_t> recorded_writes(const TraceRecorder& recorder) {
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  const Trace trace = recorder.trace();
  for (const auto& e : trace.events()) {
    if (e.kind != TraceEvent::Kind::kWrite) continue;
    ++writes;
    bytes += e.bytes;
  }
  return {writes, bytes};
}

TEST(TwoPhaseTest, SingleAggregatorMergesEverythingIntoOneWrite) {
  const auto result = run_collective(6, 1, 100, /*async=*/false);
  EXPECT_EQ(result.requests_issued, 1u);
  EXPECT_EQ(result.total_bytes, 6u * 100 * sizeof(std::int32_t));
}

TEST(TwoPhaseTest, TwoAggregatorsTwoWrites) {
  const auto result = run_collective(8, 2, 64, false);
  EXPECT_EQ(result.requests_issued, 2u);
}

TEST(TwoPhaseTest, AggregatorPerRankDegeneratesToDirect) {
  const auto result = run_collective(4, 4, 32, false);
  EXPECT_EQ(result.requests_issued, 4u);
}

TEST(TwoPhaseTest, WorksThroughAsyncConnector) {
  const auto result = run_collective(6, 2, 128, /*async=*/true);
  EXPECT_EQ(result.requests_issued, 2u);
  EXPECT_GT(result.blocking_seconds, 0.0);
}

TEST(TwoPhaseTest, UnevenGroupSizes) {
  // 7 ranks over 3 aggregators: regions of 3/3/1 slabs — everything
  // must land, one merged request per region.
  const auto result = run_collective(7, 3, 50, false);
  EXPECT_EQ(result.requests_issued, 3u);
}

TEST(TwoPhaseTest, ReducesRequestCountVersusDirect) {
  // Count requests at the connector with a recording interposer.
  constexpr int kRanks = 8;
  constexpr std::uint64_t kPerRank = 64;
  auto file = mem_file();
  TraceRecorder recorder(std::make_shared<NativeConnector>(file));
  auto ds = file->root().create_dataset(
      "d", h5::Datatype::kInt32, {kPerRank * kRanks});

  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    const std::uint64_t offset = static_cast<std::uint64_t>(comm.rank()) * kPerRank;
    write_slab(recorder, comm, ds, offset,
               std::vector<std::int32_t>(kPerRank, comm.rank()), 2);
  });
  // 8 ranks' worth of data reached storage in exactly 2 write calls.
  const auto [writes, bytes] = recorded_writes(recorder);
  EXPECT_EQ(writes, 2u);
  EXPECT_EQ(bytes, kPerRank * kRanks * sizeof(std::int32_t));
}

TEST(TwoPhaseTest, ValidatesArguments) {
  auto file = mem_file();
  NativeConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {8});
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    // Aggregator count out of range.
    EXPECT_THROW(write_slab(connector, comm, ds,
                            static_cast<std::uint64_t>(comm.rank()) * 4,
                            std::vector<std::int32_t>(4, 0), comm.size() + 1),
                 InvalidArgumentError);
    comm.barrier();
  });
}

TEST(TwoPhaseTest, NonAdjacentSlabsStaySeparateRequests) {
  // Ranks write every other block: no merging possible, aggregator
  // issues one request per piece.
  constexpr int kRanks = 4;
  auto file = mem_file();
  TraceRecorder recorder(std::make_shared<NativeConnector>(file));
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {kRanks * 2 * 8});

  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    // Rank r owns elements [r*16, r*16+8): gaps of 8 between pieces.
    const std::uint64_t offset = static_cast<std::uint64_t>(comm.rank()) * 16;
    write_slab(recorder, comm, ds, offset, std::vector<std::int32_t>(8, comm.rank()), 1);
  });
  const auto [writes, bytes] = recorded_writes(recorder);
  EXPECT_EQ(writes, 4u);  // nothing merged across the gaps
  EXPECT_EQ(bytes, kRanks * 8 * sizeof(std::int32_t));
}

}  // namespace
}  // namespace apio::vol
