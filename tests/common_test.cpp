// Unit tests for src/common: units, rng, stats, bytes, clock, error.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace apio {
namespace {

// ---------------------------------------------------------------------------
// error.h

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(APIO_REQUIRE(false, "boom"), InvalidArgumentError);
}

TEST(ErrorTest, RequirePassesOnTrue) {
  EXPECT_NO_THROW(APIO_REQUIRE(true, "fine"));
}

TEST(ErrorTest, MessageCarriesExpressionAndContext) {
  try {
    APIO_REQUIRE(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyCatchableAsError) {
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw FormatError("x"), Error);
  EXPECT_THROW(throw NotFoundError("x"), Error);
  EXPECT_THROW(throw StateError("x"), Error);
}

// ---------------------------------------------------------------------------
// units.h

TEST(UnitsTest, ByteConstants) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(kTiB, 1024ull * kGiB);
}

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(32 * kMiB), "32.00 MiB");
  EXPECT_EQ(format_bytes(3 * kGiB), "3.00 GiB");
}

TEST(UnitsTest, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(2.5 * kTB), "2.50 TB/s");
  EXPECT_EQ(format_bandwidth(700.0 * kGB), "700.00 GB/s");
  EXPECT_EQ(format_bandwidth(5.0), "5.00 B/s");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(format_seconds(2.0), "2.00 s");
  EXPECT_EQ(format_seconds(5e-3), "5.00 ms");
  EXPECT_EQ(format_seconds(5e-7), "500.00 ns");
}

// ---------------------------------------------------------------------------
// rng.h

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformRejectsInvertedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(5.0, -2.0), InvalidArgumentError);
}

TEST(RngTest, NextBelowCoversRangeUniformly) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, NextBelowRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.next_below(0), InvalidArgumentError);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.split();
  // The child stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

// ---------------------------------------------------------------------------
// stats.h

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, RunningStatsSingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(StatsTest, MeanAndStddevFreeFunctions) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(StatsTest, PercentileRejectsBadInput) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(std::span<const double>{}, 50.0), InvalidArgumentError);
  EXPECT_THROW(percentile(xs, 101.0), InvalidArgumentError);
}

TEST(StatsTest, EwmaConvergesToConstant) {
  Ewma e(0.5);
  for (int i = 0; i < 50; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(StatsTest, EwmaWeightsRecentSamples) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(StatsTest, EwmaRejectsBadAlphaAndEmptyValue) {
  EXPECT_THROW(Ewma(0.0), InvalidArgumentError);
  EXPECT_THROW(Ewma(1.5), InvalidArgumentError);
  Ewma e(0.3);
  EXPECT_TRUE(e.empty());
  EXPECT_THROW(e.value(), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// bytes.h

TEST(BytesTest, RoundTripPrimitives) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.141592653589793);
  w.put_string("hello");

  ByteReader r(w.view());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.141592653589793);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  auto v = w.view();
  EXPECT_EQ(std::to_integer<int>(v[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(v[3]), 0x01);
}

TEST(BytesTest, TruncatedReadThrowsFormatError) {
  ByteWriter w;
  w.put_u16(7);
  ByteReader r(w.view());
  EXPECT_EQ(r.get_u16(), 7);
  EXPECT_THROW(r.get_u32(), FormatError);
}

TEST(BytesTest, TruncatedStringThrows) {
  ByteWriter w;
  w.put_u32(100);  // claims 100 chars, provides none
  ByteReader r(w.view());
  EXPECT_THROW(r.get_string(), FormatError);
}

TEST(BytesTest, EmptyString) {
  ByteWriter w;
  w.put_string("");
  ByteReader r(w.view());
  EXPECT_EQ(r.get_string(), "");
}

TEST(BytesTest, RawBytesPassThrough) {
  ByteWriter w;
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  w.put_bytes(payload);
  ByteReader r(w.view());
  auto out = r.get_bytes(3);
  EXPECT_EQ(std::to_integer<int>(out[2]), 3);
}

// ---------------------------------------------------------------------------
// clock.h

TEST(ClockTest, WallClockMonotonic) {
  WallClock clock;
  const double a = clock.now();
  const double b = clock.now();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace apio
