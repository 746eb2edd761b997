// Tests for datatype conversion on the I/O path (h5/convert.h and the
// Dataset::write_as / read_as entry points).
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "h5/convert.h"
#include "h5/file.h"
#include "storage/memory_backend.h"

namespace apio::h5 {
namespace {

FilePtr mem_file() {
  return File::create(std::make_shared<storage::MemoryBackend>());
}

TEST(ConvertTest, IdentityIsMemcpy) {
  const std::vector<std::int32_t> in{1, -2, 3};
  std::vector<std::int32_t> out(3);
  convert_elements(Datatype::kInt32, std::as_bytes(std::span<const std::int32_t>(in)),
                   Datatype::kInt32, std::as_writable_bytes(std::span<std::int32_t>(out)),
                   3);
  EXPECT_EQ(out, in);
}

TEST(ConvertTest, WideningIntToDouble) {
  const std::vector<std::int16_t> in{-300, 0, 12345};
  std::vector<double> out(3);
  convert_elements(Datatype::kInt16, std::as_bytes(std::span<const std::int16_t>(in)),
                   Datatype::kFloat64, std::as_writable_bytes(std::span<double>(out)),
                   3);
  EXPECT_DOUBLE_EQ(out[0], -300.0);
  EXPECT_DOUBLE_EQ(out[2], 12345.0);
}

TEST(ConvertTest, NarrowingDoubleToFloat) {
  const std::vector<double> in{1.5, -2.25, 1e10};
  std::vector<float> out(3);
  convert_elements(Datatype::kFloat64, std::as_bytes(std::span<const double>(in)),
                   Datatype::kFloat32, std::as_writable_bytes(std::span<float>(out)),
                   3);
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[1], -2.25f);
  EXPECT_FLOAT_EQ(out[2], 1e10f);
}

TEST(ConvertTest, FloatToIntTruncates) {
  const std::vector<float> in{1.9f, -2.9f, 0.0f};
  std::vector<std::int32_t> out(3);
  convert_elements(Datatype::kFloat32, std::as_bytes(std::span<const float>(in)),
                   Datatype::kInt32,
                   std::as_writable_bytes(std::span<std::int32_t>(out)), 3);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], -2);
}

TEST(ConvertTest, SizeMismatchRejected) {
  const std::vector<float> in{1.0f};
  std::vector<double> out(2);
  EXPECT_THROW(
      convert_elements(Datatype::kFloat32, std::as_bytes(std::span<const float>(in)),
                       Datatype::kFloat64,
                       std::as_writable_bytes(std::span<double>(out)), 2),
      InvalidArgumentError);
}

// Property sweep: every (from, to) pair round-trips small non-negative
// integers exactly (all ten types can represent 0..100).
class ConvertPairTest
    : public ::testing::TestWithParam<std::tuple<Datatype, Datatype>> {};

TEST_P(ConvertPairTest, SmallIntegersSurviveRoundTrip) {
  const auto [from, to] = GetParam();
  const std::uint64_t n = 101;
  // Build source: values 0..100 encoded as `from`.
  std::vector<double> seed(n);
  std::iota(seed.begin(), seed.end(), 0.0);
  std::vector<std::byte> src(n * datatype_size(from));
  convert_elements(Datatype::kFloat64, std::as_bytes(std::span<const double>(seed)),
                   from, src, n);
  // from -> to -> float64 and compare.
  std::vector<std::byte> mid(n * datatype_size(to));
  convert_elements(from, src, to, mid, n);
  std::vector<double> back(n);
  convert_elements(to, mid, Datatype::kFloat64,
                   std::as_writable_bytes(std::span<double>(back)), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(back[i], static_cast<double>(i));
  }
}

constexpr Datatype kAllTypes[] = {
    Datatype::kInt8,  Datatype::kUInt8,  Datatype::kInt16,   Datatype::kUInt16,
    Datatype::kInt32, Datatype::kUInt32, Datatype::kInt64,   Datatype::kUInt64,
    Datatype::kFloat32, Datatype::kFloat64};

INSTANTIATE_TEST_SUITE_P(AllPairs, ConvertPairTest,
                         ::testing::Combine(::testing::ValuesIn(kAllTypes),
                                            ::testing::ValuesIn(kAllTypes)),
                         [](const auto& info) {
                           return datatype_name(std::get<0>(info.param)) + "_to_" +
                                  datatype_name(std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Dataset-level conversion

TEST(DatasetConvertTest, WriteDoublesIntoFloat32Dataset) {
  auto file = mem_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat32, {4});
  const std::vector<double> values{1.5, 2.5, 3.5, 4.5};
  ds.write_as<double>(Selection::all(), values);
  auto stored = ds.read_vector<float>(Selection::all());
  EXPECT_EQ(stored, (std::vector<float>{1.5f, 2.5f, 3.5f, 4.5f}));
}

TEST(DatasetConvertTest, ReadFloat32DatasetAsDoubles) {
  auto file = mem_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat32, {3});
  const std::vector<float> values{0.5f, 1.0f, -2.0f};
  ds.write<float>(Selection::all(), values);
  auto as_doubles = ds.read_as<double>(Selection::all());
  EXPECT_EQ(as_doubles, (std::vector<double>{0.5, 1.0, -2.0}));
}

TEST(DatasetConvertTest, MatchingTypeUsesDirectPath) {
  auto file = mem_file();
  auto ds = file->root().create_dataset("d", Datatype::kInt64, {2});
  const std::vector<std::int64_t> values{7, 8};
  ds.write_as<std::int64_t>(Selection::all(), values);
  EXPECT_EQ(ds.read_as<std::int64_t>(Selection::all()), values);
}

TEST(DatasetConvertTest, ConversionOnHyperslab) {
  auto file = mem_file();
  auto ds = file->root().create_dataset("d", Datatype::kInt32, {8});
  std::vector<std::int32_t> zeros(8, 0);
  ds.write<std::int32_t>(Selection::all(), zeros);
  const std::vector<double> patch{5.9, 6.9};  // truncates to 5, 6
  ds.write_as<double>(Selection::offsets({2}, {2}), patch);
  auto all = ds.read_vector<std::int32_t>(Selection::all());
  EXPECT_EQ(all[2], 5);
  EXPECT_EQ(all[3], 6);
  EXPECT_EQ(all[4], 0);
}

TEST(DatasetConvertTest, WorksOnChunkedDatasets) {
  auto file = mem_file();
  auto ds = file->root().create_dataset("d", Datatype::kFloat32, {16},
                                        DatasetCreateProps::chunked({8}));
  std::vector<double> values(16);
  std::iota(values.begin(), values.end(), 0.25);
  ds.write_as<double>(Selection::all(), values);
  auto back = ds.read_as<double>(Selection::all());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(back[i], static_cast<double>(static_cast<float>(values[i])));
  }
}

}  // namespace
}  // namespace apio::h5
