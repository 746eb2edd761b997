// Randomised container round-trip: seeded fuzzing of the full apio-h5
// surface.  Each case builds a random object tree (nested groups,
// datasets of random dtype/rank/layout, attributes), fills every
// dataset through randomly-shaped hyperslab writes, closes, reopens,
// and verifies byte-exact recovery of structure and contents.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "h5/file.h"
#include "storage/memory_backend.h"

namespace apio::h5 {
namespace {

struct DatasetRecord {
  std::string path;
  Datatype dtype = Datatype::kUInt8;
  Dims dims;
  Layout layout = Layout::kContiguous;
  std::vector<std::byte> expected;  // full logical contents
};

constexpr Datatype kTypes[] = {Datatype::kInt8,    Datatype::kUInt16,
                               Datatype::kInt32,   Datatype::kUInt64,
                               Datatype::kFloat32, Datatype::kFloat64};

Dims random_dims(Rng& rng) {
  const std::size_t rank = 1 + rng.next_below(3);
  Dims dims(rank);
  for (auto& d : dims) d = 1 + rng.next_below(24);
  return dims;
}

/// Writes random hyperslabs until every element has been touched at
/// least once (tracked in `expected` by mirroring the writes).
void fill_randomly(Rng& rng, Dataset ds, DatasetRecord& record) {
  const std::size_t elsize = ds.element_size();
  const auto pitch = row_pitches(record.dims);
  record.expected.assign(ds.byte_size(), std::byte{0});

  const int writes = 3 + static_cast<int>(rng.next_below(6));
  for (int w = 0; w < writes; ++w) {
    // Random offset/count box inside the extent (full extent on the
    // last write so everything is covered).
    Dims start(record.dims.size());
    Dims count(record.dims.size());
    for (std::size_t i = 0; i < record.dims.size(); ++i) {
      if (w + 1 == writes) {
        start[i] = 0;
        count[i] = record.dims[i];
      } else {
        start[i] = rng.next_below(record.dims[i]);
        count[i] = 1 + rng.next_below(record.dims[i] - start[i]);
      }
    }
    const Selection sel = Selection::offsets(start, count);
    const std::uint64_t n = sel.npoints(record.dims);
    std::vector<std::byte> payload(n * elsize);
    for (auto& b : payload) b = std::byte{static_cast<unsigned char>(rng.next_u64())};
    ds.write_raw(sel, payload);

    // Mirror into the expected image.
    std::uint64_t buf_off = 0;
    for_each_run(record.dims, sel, [&](std::uint64_t elem_off, std::uint64_t len) {
      std::memcpy(record.expected.data() + elem_off * elsize,
                  payload.data() + buf_off, len * elsize);
      buf_off += len * elsize;
    });
  }
}

class H5FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(H5FuzzTest, RandomTreeRoundTrips) {
  Rng rng(GetParam());
  auto backend = std::make_shared<storage::MemoryBackend>();
  std::vector<DatasetRecord> records;
  std::map<std::string, std::int64_t> group_attrs;

  {
    auto file = File::create(backend);
    // Random group skeleton: up to 6 groups at depth <= 3.
    std::vector<std::string> group_paths{""};
    const int groups = 2 + static_cast<int>(rng.next_below(5));
    for (int g = 0; g < groups; ++g) {
      const std::string& parent =
          group_paths[rng.next_below(group_paths.size())];
      const std::string name = "g" + std::to_string(g);
      const std::string path = parent.empty() ? name : parent + "/" + name;
      if (std::count(path.begin(), path.end(), '/') > 2) continue;
      auto group = file->ensure_path(path);
      const std::int64_t tag = static_cast<std::int64_t>(rng.next_u64());
      group.set_attribute<std::int64_t>("tag", tag);
      group_attrs[path] = tag;
      group_paths.push_back(path);
    }

    // Random datasets scattered over the groups.
    const int datasets = 3 + static_cast<int>(rng.next_below(6));
    for (int d = 0; d < datasets; ++d) {
      DatasetRecord record;
      const std::string& parent =
          group_paths[rng.next_below(group_paths.size())];
      const std::string name = "d" + std::to_string(d);
      record.path = parent.empty() ? name : parent + "/" + name;
      record.dtype = kTypes[rng.next_below(std::size(kTypes))];
      record.dims = random_dims(rng);

      DatasetCreateProps props;
      if (rng.next_below(2) == 1) {
        record.layout = Layout::kChunked;
        Dims chunk(record.dims.size());
        for (std::size_t i = 0; i < chunk.size(); ++i) {
          chunk[i] = 1 + rng.next_below(record.dims[i]);
        }
        props = DatasetCreateProps::chunked(chunk);
      }
      auto group = parent.empty() ? file->root() : file->ensure_path(parent);
      auto ds = group.create_dataset(name, record.dtype, record.dims, props);
      fill_randomly(rng, ds, record);
      records.push_back(std::move(record));
    }
    file->close();
  }

  // Reopen and verify everything.
  auto file = File::open(backend);
  for (const auto& [path, tag] : group_attrs) {
    EXPECT_EQ(file->ensure_path(path).attribute<std::int64_t>("tag"), tag) << path;
  }
  for (const auto& record : records) {
    auto ds = file->dataset_at(record.path);
    EXPECT_EQ(ds.dtype(), record.dtype) << record.path;
    EXPECT_EQ(ds.dims(), record.dims) << record.path;
    EXPECT_EQ(ds.layout(), record.layout) << record.path;
    std::vector<std::byte> readback(ds.byte_size());
    ds.read_raw(Selection::all(), readback);
    EXPECT_EQ(readback, record.expected) << record.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, H5FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                           89u, 144u, 233u));

}  // namespace
}  // namespace apio::h5
