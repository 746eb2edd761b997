// Unit tests for the apio-h5 container: files, groups, datasets
// (contiguous and chunked), attributes, persistence and format errors.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "common/error.h"
#include "h5/file.h"
#include "storage/memory_backend.h"

namespace apio::h5 {
namespace {

FilePtr make_file() {
  return File::create(std::make_shared<storage::MemoryBackend>());
}

std::vector<double> iota_doubles(std::size_t n, double start = 0.0) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

// ---------------------------------------------------------------------------
// File lifecycle

TEST(FileTest, CreateOpensEmptyRoot) {
  auto file = make_file();
  EXPECT_TRUE(file->is_open());
  EXPECT_TRUE(file->root().group_names().empty());
  EXPECT_TRUE(file->root().dataset_names().empty());
}

TEST(FileTest, CloseInvalidatesHandles) {
  auto file = make_file();
  Group root = file->root();
  file->close();
  EXPECT_FALSE(file->is_open());
  EXPECT_THROW(root.create_group("g"), StateError);
  EXPECT_THROW(file->flush(), InvalidArgumentError);
}

TEST(FileTest, OpenRejectsGarbage) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  std::vector<std::byte> junk(128, std::byte{0x5A});
  backend->write(0, junk);
  EXPECT_THROW(File::open(backend), FormatError);
}

TEST(FileTest, OpenRejectsTooSmall) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  backend->write(0, std::vector<std::byte>(8, std::byte{1}));
  EXPECT_THROW(File::open(backend), FormatError);
}

TEST(FileTest, RoundTripThroughBackend) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  {
    auto file = File::create(backend);
    auto g = file->root().create_group("physics");
    auto ds = g.create_dataset("x", Datatype::kFloat64, {8});
    const auto values = iota_doubles(8, 1.0);
    ds.write<double>(Selection::all(), values);
    g.set_attribute<std::int64_t>("step", 17);
    file->close();
  }
  {
    auto file = File::open(backend);
    auto g = file->root().open_group("physics");
    EXPECT_EQ(g.attribute<std::int64_t>("step"), 17);
    auto ds = g.open_dataset("x");
    EXPECT_EQ(ds.dtype(), Datatype::kFloat64);
    EXPECT_EQ(ds.dims(), (Dims{8}));
    auto values = ds.read_vector<double>(Selection::all());
    EXPECT_EQ(values, iota_doubles(8, 1.0));
  }
}

TEST(FileTest, ReopenAfterFlushWithoutClose) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  auto file = File::create(backend);
  file->root().create_dataset("d", Datatype::kInt32, {4});
  file->flush();
  auto reopened = File::open(backend);
  EXPECT_TRUE(reopened->root().has_dataset("d"));
}

TEST(FileTest, PosixFileHelpersRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "apio_h5_file_test.h5").string();
  {
    auto file = create_file(path);
    auto ds = file->root().create_dataset("v", Datatype::kUInt32, {3});
    const std::vector<std::uint32_t> values{7, 8, 9};
    ds.write<std::uint32_t>(Selection::all(), values);
    file->close();
  }
  {
    auto file = open_file(path);
    auto values = file->root().open_dataset("v").read_vector<std::uint32_t>(
        Selection::all());
    EXPECT_EQ(values, (std::vector<std::uint32_t>{7, 8, 9}));
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Groups

TEST(GroupTest, NestedHierarchy) {
  auto file = make_file();
  auto a = file->root().create_group("a");
  auto b = a.create_group("b");
  b.create_group("c");
  EXPECT_TRUE(file->root().open_group("a").open_group("b").has_group("c"));
}

TEST(GroupTest, DuplicateNameRejected) {
  auto file = make_file();
  file->root().create_group("x");
  EXPECT_THROW(file->root().create_group("x"), InvalidArgumentError);
  EXPECT_THROW(file->root().create_dataset("x", Datatype::kInt8, {1}),
               InvalidArgumentError);
}

TEST(GroupTest, OpenMissingThrowsNotFound) {
  auto file = make_file();
  EXPECT_THROW(file->root().open_group("nope"), NotFoundError);
  EXPECT_THROW(file->root().open_dataset("nope"), NotFoundError);
}

TEST(GroupTest, InvalidNamesRejected) {
  auto file = make_file();
  EXPECT_THROW(file->root().create_group(""), InvalidArgumentError);
  EXPECT_THROW(file->root().create_group("a/b"), InvalidArgumentError);
}

TEST(GroupTest, RequireGroupIdempotent) {
  auto file = make_file();
  file->root().require_group("g");
  auto g = file->root().require_group("g");
  EXPECT_EQ(g.name(), "g");
  EXPECT_EQ(file->root().group_names().size(), 1u);
}

TEST(GroupTest, ListingsAreSorted) {
  auto file = make_file();
  file->root().create_group("zeta");
  file->root().create_group("alpha");
  file->root().create_dataset("mid", Datatype::kInt8, {1});
  EXPECT_EQ(file->root().group_names(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(file->root().dataset_names(), (std::vector<std::string>{"mid"}));
}

TEST(GroupTest, RemoveUnlinksChild) {
  auto file = make_file();
  file->root().create_group("g");
  file->root().create_dataset("d", Datatype::kInt8, {1});
  file->root().remove("g");
  file->root().remove("d");
  EXPECT_FALSE(file->root().has_group("g"));
  EXPECT_FALSE(file->root().has_dataset("d"));
  EXPECT_THROW(file->root().remove("g"), NotFoundError);
}

TEST(GroupTest, EnsurePathCreatesChain) {
  auto file = make_file();
  auto g = file->ensure_path("/sim/output/step1/");
  EXPECT_EQ(g.name(), "step1");
  EXPECT_TRUE(
      file->root().open_group("sim").open_group("output").has_group("step1"));
}

TEST(GroupTest, DatasetAtWalksPath) {
  auto file = make_file();
  auto g = file->ensure_path("a/b");
  g.create_dataset("d", Datatype::kFloat32, {2});
  auto ds = file->dataset_at("a/b/d");
  EXPECT_EQ(ds.name(), "d");
  EXPECT_THROW(file->dataset_at("a/b/missing"), NotFoundError);
}

// ---------------------------------------------------------------------------
// Contiguous datasets

TEST(DatasetTest, TypedWriteReadRoundTrip) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat64, {4, 4});
  EXPECT_EQ(ds.npoints(), 16u);
  EXPECT_EQ(ds.element_size(), 8u);
  EXPECT_EQ(ds.byte_size(), 128u);
  const auto values = iota_doubles(16);
  ds.write<double>(Selection::all(), values);
  EXPECT_EQ(ds.read_vector<double>(Selection::all()), values);
}

TEST(DatasetTest, HyperslabWriteReadSubregion) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kInt32, {4, 4});
  std::vector<std::int32_t> zeros(16, 0);
  ds.write<std::int32_t>(Selection::all(), zeros);

  const auto sel = Selection::offsets({1, 1}, {2, 2});
  const std::vector<std::int32_t> patch{1, 2, 3, 4};
  ds.write<std::int32_t>(sel, patch);

  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all[1 * 4 + 1], 1);
  EXPECT_EQ(all[1 * 4 + 2], 2);
  EXPECT_EQ(all[2 * 4 + 1], 3);
  EXPECT_EQ(all[2 * 4 + 2], 4);
  EXPECT_EQ(all[0], 0);
  EXPECT_EQ(ds.read_vector<std::int32_t>(sel), patch);
}

TEST(DatasetTest, StridedWrite) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kInt32, {10});
  std::vector<std::int32_t> zeros(10, 0);
  ds.write<std::int32_t>(Selection::all(), zeros);

  Hyperslab slab;
  slab.start = {0};
  slab.stride = {2};
  slab.count = {5};
  const std::vector<std::int32_t> odds{1, 3, 5, 7, 9};
  ds.write<std::int32_t>(Selection::hyperslab(slab), odds);
  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all, (std::vector<std::int32_t>{1, 0, 3, 0, 5, 0, 7, 0, 9, 0}));
}

TEST(DatasetTest, TypeMismatchRejected) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat32, {4});
  const std::vector<double> wrong(4, 0.0);
  EXPECT_THROW(ds.write<double>(Selection::all(), wrong), InvalidArgumentError);
}

TEST(DatasetTest, BufferSizeMismatchRejected) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat32, {4});
  const std::vector<float> too_small(3, 0.0f);
  EXPECT_THROW(ds.write<float>(Selection::all(), too_small), InvalidArgumentError);
  std::vector<float> too_big(5, 0.0f);
  EXPECT_THROW(ds.read<float>(Selection::all(), std::span<float>(too_big)),
               InvalidArgumentError);
}

TEST(DatasetTest, OutOfBoundsSelectionRejected) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat32, {4});
  std::vector<float> buf(2, 0.0f);
  EXPECT_THROW(ds.write<float>(Selection::offsets({3}, {2}), buf),
               InvalidArgumentError);
}

template <typename T>
void check_datatype_roundtrip(const FilePtr& file, const char* name, T sample) {
  auto ds = file->root().create_dataset(name, native_datatype<T>(), {2});
  const std::vector<T> values{sample, T{}};
  ds.template write<T>(Selection::all(), values);
  EXPECT_EQ(ds.template read_vector<T>(Selection::all()), values);
}

TEST(DatasetTest, AllSupportedDatatypes) {
  auto file = make_file();
  check_datatype_roundtrip<std::int8_t>(file, "i8", -5);
  check_datatype_roundtrip<std::uint8_t>(file, "u8", 200);
  check_datatype_roundtrip<std::int16_t>(file, "i16", -3000);
  check_datatype_roundtrip<std::uint16_t>(file, "u16", 60000);
  check_datatype_roundtrip<std::int32_t>(file, "i32", -100000);
  check_datatype_roundtrip<std::uint32_t>(file, "u32", 4000000000u);
  check_datatype_roundtrip<std::int64_t>(file, "i64", -5000000000ll);
  check_datatype_roundtrip<std::uint64_t>(file, "u64", 18000000000000000000ull);
  check_datatype_roundtrip<float>(file, "f32", 1.5f);
  check_datatype_roundtrip<double>(file, "f64", -2.25);
}

TEST(DatasetTest, SetExtentRequiresChunked) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kInt8, {4});
  EXPECT_THROW(ds.set_extent({8}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Chunked datasets

TEST(ChunkedTest, RoundTripAcrossChunkBoundaries) {
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kInt32, {8, 8}, DatasetCreateProps::chunked({3, 3}));
  EXPECT_EQ(ds.layout(), Layout::kChunked);
  std::vector<std::int32_t> values(64);
  std::iota(values.begin(), values.end(), 0);
  ds.write<std::int32_t>(Selection::all(), values);
  EXPECT_EQ(ds.read_vector<std::int32_t>(Selection::all()), values);
}

TEST(ChunkedTest, UnwrittenChunksReadZeroFill) {
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kFloat32, {8}, DatasetCreateProps::chunked({4}));
  const std::vector<float> half{1, 2, 3, 4};
  ds.write<float>(Selection::offsets({0}, {4}), half);
  auto all = ds.read_vector<float>(Selection::all());
  EXPECT_EQ(all[0], 1.0f);
  EXPECT_EQ(all[4], 0.0f);
  EXPECT_EQ(all[7], 0.0f);
}

TEST(ChunkedTest, PartialChunkWriteLeavesRestZero) {
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kInt32, {4, 4}, DatasetCreateProps::chunked({4, 4}));
  const std::vector<std::int32_t> one{42};
  ds.write<std::int32_t>(Selection::offsets({2, 2}, {1, 1}), one);
  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all[2 * 4 + 2], 42);
  EXPECT_EQ(all[0], 0);
}

TEST(ChunkedTest, SetExtentGrowsDataset) {
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kInt32, {4}, DatasetCreateProps::chunked({4}));
  const std::vector<std::int32_t> first{1, 2, 3, 4};
  ds.write<std::int32_t>(Selection::all(), first);
  ds.set_extent({8});
  EXPECT_EQ(ds.dims(), (Dims{8}));
  const std::vector<std::int32_t> second{5, 6, 7, 8};
  ds.write<std::int32_t>(Selection::offsets({4}, {4}), second);
  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all, (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(ChunkedTest, SetExtentShrinkDropsOutsideChunksOnRegrow) {
  // Regression: shrinking used to keep chunks that fell entirely
  // outside the new extent, so regrowing exposed stale data where the
  // format promises zero fill for never-written (dead) regions.
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kInt32, {8}, DatasetCreateProps::chunked({4}));
  const std::vector<std::int32_t> values{1, 2, 3, 4, 5, 6, 7, 8};
  ds.write<std::int32_t>(Selection::all(), values);

  ds.set_extent({4});  // chunk [4,8) now fully outside: dropped
  ds.set_extent({8});  // regrow over dead space
  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all, (std::vector<std::int32_t>{1, 2, 3, 4, 0, 0, 0, 0}));
}

TEST(ChunkedTest, SetExtentShrinkKeepsPartiallyCoveredChunks) {
  // A chunk still intersecting the new extent survives the shrink; the
  // part beyond the extent is clipped on read but reappears on regrow
  // (matching HDF5, which only discards whole chunks).
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kInt32, {8}, DatasetCreateProps::chunked({4}));
  const std::vector<std::int32_t> values{1, 2, 3, 4, 5, 6, 7, 8};
  ds.write<std::int32_t>(Selection::all(), values);

  ds.set_extent({6});  // chunk [4,8) partially inside: kept
  EXPECT_EQ(ds.read_vector<std::int32_t>(Selection::all()),
            (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6}));
  ds.set_extent({8});
  EXPECT_EQ(ds.read_vector<std::int32_t>(Selection::all()), values);
}

TEST(ChunkedTest, SetExtentShrink2DDropsOnlyFullyOutsideChunks) {
  auto file = make_file();
  auto ds = file->root().create_dataset(
      "d", Datatype::kInt32, {4, 4}, DatasetCreateProps::chunked({2, 2}));
  std::vector<std::int32_t> values(16);
  std::iota(values.begin(), values.end(), 1);
  ds.write<std::int32_t>(Selection::all(), values);

  // Shrink to {2,4}: the two bottom chunks (rows 2-3) are fully
  // outside and must be dropped; top chunks survive intact.
  ds.set_extent({2, 4});
  ds.set_extent({4, 4});
  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all, (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6, 7, 8,  //
                                            0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(ChunkedTest, PersistsAcrossReopen) {
  // The extent set by set_extent persists, and so does the chunk set a
  // shrink left behind.
  auto backend = std::make_shared<storage::MemoryBackend>();
  {
    auto file = File::create(backend);
    auto ds = file->root().create_dataset(
        "d", Datatype::kFloat64, {6, 6}, DatasetCreateProps::chunked({2, 5}));
    ds.write<double>(Selection::all(), iota_doubles(36));
    ds.set_extent({10, 6});
    ds.write<double>(Selection::offsets({6, 0}, {4, 6}), iota_doubles(24, 36));
    ds.set_extent({8, 6});  // chunk row [8,10) lies fully outside: dropped
    file->close();
  }
  {
    auto file = File::open(backend);
    auto ds = file->root().open_dataset("d");
    EXPECT_EQ(ds.layout(), Layout::kChunked);
    EXPECT_EQ(ds.chunk_dims(), (Dims{2, 5}));
    EXPECT_EQ(ds.dims(), (Dims{8, 6}));
    EXPECT_EQ(ds.read_vector<double>(Selection::all()), iota_doubles(48));
    ds.set_extent({10, 6});
    EXPECT_EQ(ds.read_vector<double>(Selection::offsets({8, 0}, {2, 6})),
              std::vector<double>(12, 0.0));
  }
}

TEST(ChunkedTest, ChunkRankMismatchRejected) {
  auto file = make_file();
  EXPECT_THROW(file->root().create_dataset("d", Datatype::kInt8, {4, 4},
                                           DatasetCreateProps::chunked({4})),
               InvalidArgumentError);
}

TEST(ChunkedTest, ZeroChunkDimRejected) {
  auto file = make_file();
  EXPECT_THROW(file->root().create_dataset("d", Datatype::kInt8, {4},
                                           DatasetCreateProps::chunked({0})),
               InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Attributes

TEST(AttributeTest, ScalarRoundTripAllTypes) {
  auto file = make_file();
  auto g = file->root().create_group("g");
  g.set_attribute<double>("pi", 3.25);
  g.set_attribute<std::int32_t>("count", -7);
  g.set_attribute<std::uint64_t>("big", 1ull << 40);
  EXPECT_DOUBLE_EQ(g.attribute<double>("pi"), 3.25);
  EXPECT_EQ(g.attribute<std::int32_t>("count"), -7);
  EXPECT_EQ(g.attribute<std::uint64_t>("big"), 1ull << 40);
}

TEST(AttributeTest, OverwriteReplacesValue) {
  auto file = make_file();
  auto g = file->root().create_group("g");
  g.set_attribute<std::int32_t>("v", 1);
  g.set_attribute<std::int32_t>("v", 2);
  EXPECT_EQ(g.attribute<std::int32_t>("v"), 2);
}

TEST(AttributeTest, TypeMismatchOnReadThrows) {
  auto file = make_file();
  auto g = file->root().create_group("g");
  g.set_attribute<std::int32_t>("v", 1);
  EXPECT_THROW(g.attribute<double>("v"), InvalidArgumentError);
}

TEST(AttributeTest, MissingAttributeThrows) {
  auto file = make_file();
  auto g = file->root().create_group("g");
  EXPECT_FALSE(g.has_attribute("v"));
  EXPECT_THROW(g.attribute<double>("v"), NotFoundError);
}

TEST(AttributeTest, DatasetAttributesPersist) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  {
    auto file = File::create(backend);
    auto ds = file->root().create_dataset("d", Datatype::kInt8, {1});
    ds.set_attribute<double>("dt", 0.125);
    file->close();
  }
  auto file = File::open(backend);
  EXPECT_DOUBLE_EQ(file->root().open_dataset("d").attribute<double>("dt"), 0.125);
}

TEST(AttributeTest, VectorAttributeRaw) {
  auto file = make_file();
  auto g = file->root().create_group("g");
  const std::vector<float> values{1.0f, 2.0f, 3.0f};
  g.set_attribute_raw("vec", Datatype::kFloat32, {3},
                      std::as_bytes(std::span<const float>(values)));
  std::vector<float> out(3);
  g.attribute_raw("vec", Datatype::kFloat32,
                  std::as_writable_bytes(std::span<float>(out)));
  EXPECT_EQ(out, values);
}

// ---------------------------------------------------------------------------
// Many objects / metadata scale

TEST(MetadataScaleTest, HundredsOfDatasetsPersist) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  {
    auto file = File::create(backend);
    for (int step = 0; step < 20; ++step) {
      auto g = file->root().create_group("step" + std::to_string(step));
      for (int d = 0; d < 10; ++d) {
        auto ds = g.create_dataset("d" + std::to_string(d), Datatype::kInt32, {2});
        const std::vector<std::int32_t> values{step, d};
        ds.write<std::int32_t>(Selection::all(), values);
      }
    }
    file->close();
  }
  auto file = File::open(backend);
  for (int step = 0; step < 20; ++step) {
    auto g = file->root().open_group("step" + std::to_string(step));
    ASSERT_EQ(g.dataset_names().size(), 10u);
    auto v = g.open_dataset("d7").read_vector<std::int32_t>(Selection::all());
    EXPECT_EQ(v, (std::vector<std::int32_t>{step, 7}));
  }
}

// ---------------------------------------------------------------------------
// Handle lifetime across Group::remove

TEST(HandleLifetimeTest, DatasetUsedAfterRemoveThrowsStateError) {
  auto file = make_file();
  auto ds = file->root().create_dataset("d", Datatype::kInt32, {4});
  ds.write<std::int32_t>(Selection::all(), std::vector<std::int32_t>{1, 2, 3, 4});
  file->root().remove("d");

  EXPECT_THROW(ds.dims(), StateError);
  EXPECT_THROW(ds.name(), StateError);
  EXPECT_THROW(ds.read_vector<std::int32_t>(Selection::all()), StateError);
  EXPECT_THROW(ds.write<std::int32_t>(Selection::all(), std::vector<std::int32_t>(4)),
               StateError);
  EXPECT_THROW(ds.set_attribute<std::int32_t>("a", 1), StateError);
  EXPECT_THROW(file->path_of(ds), NotFoundError);

  // The name is free again, and the new dataset is a different object.
  auto again = file->root().create_dataset("d", Datatype::kInt8, {2});
  EXPECT_NE(again.object_key(), ds.object_key());
  EXPECT_EQ(file->path_of(again), "d");
  EXPECT_EQ(again.dims(), (Dims{2}));
  EXPECT_THROW(ds.dims(), StateError);
}

TEST(HandleLifetimeTest, HandlesBelowRemovedGroupThrowStateError) {
  auto file = make_file();
  auto inner = file->ensure_path("a/b");
  auto deep = inner.create_dataset("d", Datatype::kFloat32, {8});
  auto shallow = file->root().open_group("a").create_dataset("e", Datatype::kInt8, {1});
  auto kept = file->root().create_dataset("kept", Datatype::kInt8, {1});
  file->root().remove("a");

  EXPECT_THROW(inner.name(), StateError);
  EXPECT_THROW(inner.create_dataset("x", Datatype::kInt8, {1}), StateError);
  EXPECT_THROW(deep.dims(), StateError);
  EXPECT_THROW(shallow.npoints(), StateError);
  EXPECT_THROW(file->path_of(deep), NotFoundError);
  EXPECT_THROW(file->path_of(shallow), NotFoundError);
  EXPECT_EQ(file->path_of(kept), "kept");
  EXPECT_EQ(kept.dims(), (Dims{1}));
  EXPECT_FALSE(file->root().has_group("a"));
}

// ---------------------------------------------------------------------------
// The path index: every dataset keeps the path it was created or loaded at

TEST(PathIndexTest, PathOfMatchesCreationPathAcross16kDatasets) {
  constexpr int kGroups = 16;
  constexpr int kSubgroups = 15;
  constexpr int kPerGroup = 64;
  auto backend = std::make_shared<storage::MemoryBackend>();
  auto file = File::create(backend);
  std::vector<std::string> paths;
  std::vector<Dataset> handles;
  auto add = [&](Group& g, const std::string& dir) {
    for (int d = 0; d < kPerGroup; ++d) {
      const std::string name = "d" + std::to_string(d);
      handles.push_back(g.create_dataset(name, Datatype::kUInt8, {1}));
      paths.push_back(dir + "/" + name);
    }
  };
  // Datasets at depth 2 and 3: 16 * (64 + 15 * 64) = 16,384.
  for (int a = 0; a < kGroups; ++a) {
    const std::string top = "g" + std::to_string(a);
    Group g = file->root().create_group(top);
    add(g, top);
    for (int b = 0; b < kSubgroups; ++b) {
      const std::string sub = "s" + std::to_string(b);
      Group s = g.create_group(sub);
      add(s, top + "/" + sub);
    }
  }
  ASSERT_EQ(handles.size(), 16384u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(file->path_of(handles[i]), paths[i]);
  }

  // Deserialized paths.
  file->flush();
  auto reopened = File::open(backend);
  for (const auto& path : paths) {
    ASSERT_EQ(reopened->path_of(reopened->dataset_at(path)), path);
  }

  // A handle of the written container is foreign to the reopened one.
  EXPECT_THROW(reopened->path_of(handles.front()), NotFoundError);
}

}  // namespace
}  // namespace apio::h5
