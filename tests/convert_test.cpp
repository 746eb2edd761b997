// Tests for element-wise datatype conversion (h5/convert.h).
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "h5/convert.h"

namespace apio::h5 {
namespace {

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

}  // namespace
}  // namespace apio::h5
