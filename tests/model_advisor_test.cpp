// Tests for the ModeAdvisor feedback loop (Fig. 2): exploration,
// estimation from observed records and epoch markers, and sync-vs-async
// recommendations.
#include <gtest/gtest.h>

#include "common/error.h"
#include "model/advisor.h"
#include "obs/epoch_analyzer.h"

namespace apio::model {
namespace {

obs::IoRecord sync_write(std::uint64_t bytes, int ranks, double seconds) {
  obs::IoRecord r;
  r.op = obs::IoOp::kWrite;
  r.bytes = bytes;
  r.ranks = ranks;
  r.blocking_seconds = seconds;
  r.completion_seconds = seconds;
  r.async = false;
  return r;
}

obs::IoRecord async_write(std::uint64_t bytes, int ranks, double staging_seconds,
                          double completion_seconds) {
  obs::IoRecord r;
  r.op = obs::IoOp::kWrite;
  r.bytes = bytes;
  r.ranks = ranks;
  r.blocking_seconds = staging_seconds;
  r.completion_seconds = completion_seconds;
  r.async = true;
  return r;
}

/// Feeds an advisor a sync population at rate `sync_rate` and an async
/// (staging) population at rate `async_rate`.
void feed(ModeAdvisor& advisor, double sync_rate, double async_rate,
          int samples = 6) {
  for (int i = 1; i <= samples; ++i) {
    const std::uint64_t bytes = static_cast<std::uint64_t>(i) * 10'000'000;
    const int ranks = 2 * i;
    advisor.on_io(sync_write(bytes, ranks, static_cast<double>(bytes) / sync_rate));
    advisor.on_io(async_write(bytes, ranks, static_cast<double>(bytes) / async_rate,
                              static_cast<double>(bytes) / sync_rate));
  }
}

TEST(ModeAdvisorTest, StartsUnready) {
  ModeAdvisor advisor;
  EXPECT_FALSE(advisor.sync_ready());
  EXPECT_FALSE(advisor.async_ready());
  EXPECT_FALSE(advisor.compute_ready());
}

TEST(ModeAdvisorTest, ExplorationOrderSyncThenAsync) {
  ModeAdvisor advisor;
  // With nothing known: measure sync first.
  EXPECT_EQ(advisor.recommend(1'000'000, 4), IoMode::kSync);

  for (int i = 1; i <= 4; ++i) {
    advisor.on_io(sync_write(static_cast<std::uint64_t>(i) * 1'000'000, i, 0.1 * i));
  }
  advisor.record_compute(1.0);
  // Sync known, async not: explore async.
  EXPECT_TRUE(advisor.sync_ready());
  EXPECT_EQ(advisor.recommend(1'000'000, 4), IoMode::kAsync);
}

TEST(ModeAdvisorTest, IgnoresZeroBlockingRecords) {
  ModeAdvisor advisor;
  obs::IoRecord r = async_write(1000, 1, 0.0, 1.0);  // background read style
  advisor.on_io(r);
  EXPECT_EQ(advisor.sample_count(), 0u);
}

TEST(ModeAdvisorTest, EstimatesMatchFedRates) {
  ModeAdvisor advisor;
  feed(advisor, /*sync_rate=*/1e9, /*async_rate=*/1e10);
  advisor.record_compute(2.0);

  const std::uint64_t probe = 40'000'000;
  EXPECT_NEAR(advisor.estimate_io_seconds(probe, 8), probe / 1e9, probe / 1e9 * 0.2);
  EXPECT_NEAR(advisor.estimate_transact_seconds(probe, 8), probe / 1e10,
              probe / 1e10 * 0.2);
  EXPECT_DOUBLE_EQ(advisor.estimate_compute_seconds(), 2.0);
}

TEST(ModeAdvisorTest, RecommendsAsyncWhenComputeHidesIo) {
  ModeAdvisor advisor;
  feed(advisor, 1e9, 1e10);
  advisor.record_compute(10.0);  // plenty of compute to overlap with
  EXPECT_EQ(advisor.recommend(50'000'000, 8), IoMode::kAsync);
  EXPECT_EQ(advisor.predict_scenario(50'000'000, 8), OverlapScenario::kIdeal);
}

TEST(ModeAdvisorTest, RecommendsSyncWhenOverheadCannotAmortize) {
  ModeAdvisor advisor;
  // Staging barely faster than the PFS: overhead eats the benefit when
  // compute is negligible.
  feed(advisor, 1e9, 1.05e9);
  advisor.record_compute(1e-4);
  EXPECT_EQ(advisor.recommend(50'000'000, 8), IoMode::kSync);
  EXPECT_EQ(advisor.predict_scenario(50'000'000, 8), OverlapScenario::kSlowdown);
}

TEST(ModeAdvisorTest, PredictEpochComposesEstimators) {
  ModeAdvisor advisor;
  feed(advisor, 2e9, 2e10);
  advisor.record_compute(3.0);
  const auto costs = advisor.predict_epoch(20'000'000, 4);
  EXPECT_NEAR(costs.t_comp, 3.0, 1e-12);
  EXPECT_GT(costs.t_io, 0.0);
  EXPECT_GT(costs.t_transact, 0.0);
  EXPECT_LT(costs.t_transact, costs.t_io);
}

TEST(ModeAdvisorTest, R2HighForCleanLinearPopulations) {
  ModeAdvisor advisor;
  feed(advisor, 1e9, 1e10, /*samples=*/12);
  // Rates proportional to bytes/second with bytes and ranks growing
  // linearly: the linear fit should be essentially exact, mirroring the
  // paper's >80 % (sync) / >90 % (async) observations.
  EXPECT_GT(advisor.sync_r_squared(), 0.9);
  EXPECT_GT(advisor.async_r_squared(), 0.9);
}

TEST(ModeAdvisorTest, ComputeEwmaTracksDrift) {
  ModeAdvisor advisor;
  advisor.record_compute(1.0);
  for (int i = 0; i < 30; ++i) advisor.record_compute(4.0);
  EXPECT_NEAR(advisor.estimate_compute_seconds(), 4.0, 0.01);
  EXPECT_EQ(advisor.compute_observations(), 31u);
}

TEST(ModeAdvisorTest, NegativeComputeRejected) {
  ModeAdvisor advisor;
  EXPECT_THROW(advisor.record_compute(-1.0), InvalidArgumentError);
}

void mark(obs::EpochEvent::Kind kind, int rank, double seconds) {
  obs::emit_epoch_event({kind, /*epoch=*/0, rank, seconds});
}

TEST(ModeAdvisorTest, LearnsComputeFromEpochMarkers) {
  using Kind = obs::EpochEvent::Kind;
  {
    // begin -> compute_done is one t_comp sample.
    ModeAdvisor advisor;
    mark(Kind::kBegin, 0, 10.0);
    mark(Kind::kComputeDone, 0, 10.25);
    mark(Kind::kEnd, 0, 10.5);
    EXPECT_EQ(advisor.compute_observations(), 1u);
    EXPECT_DOUBLE_EQ(advisor.estimate_compute_seconds(), 0.25);
  }
  {
    // compute_start moves the window start past the epoch's I/O.
    ModeAdvisor advisor;
    mark(Kind::kBegin, 0, 20.0);
    mark(Kind::kComputeStart, 0, 20.5);
    mark(Kind::kComputeDone, 0, 21.0);
    EXPECT_DOUBLE_EQ(advisor.estimate_compute_seconds(), 0.5);
  }
  {
    // An epoch that never marks compute_done adds nothing, and a
    // compute_done after its epoch ended has no window to close.
    ModeAdvisor advisor;
    mark(Kind::kBegin, 0, 30.0);
    mark(Kind::kEnd, 0, 31.0);
    mark(Kind::kComputeDone, 0, 32.0);
    EXPECT_EQ(advisor.compute_observations(), 0u);
    EXPECT_FALSE(advisor.compute_ready());
  }
  {
    // Interleaved ranks keep separate windows: 0.2 s then 1.0 s.
    ModeAdvisor advisor;
    mark(Kind::kBegin, 0, 40.0);
    mark(Kind::kBegin, 1, 40.1);
    mark(Kind::kComputeDone, 1, 40.3);
    mark(Kind::kComputeDone, 0, 41.0);
    EXPECT_EQ(advisor.compute_observations(), 2u);
    EXPECT_NEAR(advisor.estimate_compute_seconds(), 0.5 * 1.0 + 0.5 * 0.2, 1e-12);
  }
  // Markers after every advisor is gone reach no sink.
  mark(Kind::kBegin, 0, 50.0);
  mark(Kind::kComputeDone, 0, 51.0);
  EXPECT_FALSE(obs::epoch_sinks_active());
}

TEST(ModeAdvisorTest, DecisionMatchesOracleOverSweep) {
  // For a grid of workloads, the advisor trained on exact-rate
  // populations must agree with the analytic oracle (Eq. 2a vs 2b).
  const double sync_rate = 5e8;
  const double async_rate = 8e9;
  ModeAdvisor advisor;
  feed(advisor, sync_rate, async_rate, 10);

  for (double compute : {0.0001, 0.01, 0.5, 5.0}) {
    ModeAdvisor fresh;
    feed(fresh, sync_rate, async_rate, 10);
    fresh.record_compute(compute);
    for (std::uint64_t bytes : {5'000'000ull, 50'000'000ull, 500'000'000ull}) {
      EpochCosts oracle;
      oracle.t_comp = compute;
      oracle.t_io = static_cast<double>(bytes) / sync_rate;
      oracle.t_transact = static_cast<double>(bytes) / async_rate;
      const IoMode expected =
          async_is_beneficial(oracle) ? IoMode::kAsync : IoMode::kSync;
      // Allow the advisor's regression-smoothed estimates to disagree
      // only when the two modes are within 10% of each other.
      const double margin =
          std::abs(sync_epoch_seconds(oracle) - async_epoch_seconds(oracle)) /
          sync_epoch_seconds(oracle);
      if (margin > 0.1) {
        EXPECT_EQ(fresh.recommend(bytes, 8), expected)
            << "compute=" << compute << " bytes=" << bytes;
      }
    }
  }
}

}  // namespace
}  // namespace apio::model
