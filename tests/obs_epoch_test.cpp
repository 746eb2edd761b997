// Edge cases of the epoch-timeline analyzer: synthetic marker streams
// and IoRecords with explicit timestamps (no sleeps), checking the
// reconstruction (t_comp / t_io / t_transact), the Eq. 2a/2b prediction
// path, Fig. 1 classification, Eq. 3 slowest-rank attribution, and the
// live drift alerting.
#include <gtest/gtest.h>

#include "common/debug/thread_role.h"
#include "model/epoch_model.h"
#include "obs/epoch_analyzer.h"

namespace apio::obs {
namespace {

using Kind = EpochEvent::Kind;

EpochEvent event(Kind kind, std::int64_t epoch, int rank, double t) {
  return {kind, epoch, rank, t};
}

IoRecord record(int rank, double issue, double blocking, double completion,
                bool async, std::uint64_t bytes = 1024,
                IoOp op = IoOp::kWrite) {
  IoRecord r;
  r.op = op;
  r.bytes = bytes;
  r.origin_rank = rank;
  r.issue_time = issue;
  r.blocking_seconds = blocking;
  r.completion_seconds = completion;
  r.async = async;
  return r;
}

TEST(EpochAnalyzerTest, EmptyStreamProducesEmptyReport) {
  EpochAnalyzer analyzer;
  const EpochReport report = analyzer.report();
  EXPECT_TRUE(report.epochs.empty());
  EXPECT_EQ(report.orphan_records, 0u);
  EXPECT_EQ(report.drift_alerts, 0u);
  EXPECT_DOUBLE_EQ(report.mean_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(report.observed_app_seconds, 0.0);
  // Rendering an empty report must not crash and still yields a header.
  EXPECT_FALSE(report.table().empty());
  EXPECT_FALSE(report.summary().empty());
  EXPECT_FALSE(report.to_chrome_json().empty());
}

TEST(EpochAnalyzerTest, SingleSyncEpochMatchesEq2a) {
  EpochAnalyzer analyzer;
  // Epoch 0 on rank 0: compute [10.0, 12.0], one sync write blocking
  // 0.5 s, epoch ends at 12.5.
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 10.0));
  analyzer.on_epoch_event(event(Kind::kComputeStart, 0, 0, 10.0));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 0, 12.0));
  analyzer.on_io(record(0, 12.0, 0.5, 0.5, /*async=*/false));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 12.5));

  const EpochReport report = analyzer.report();
  ASSERT_EQ(report.epochs.size(), 1u);
  const EpochStats& e = report.epochs.front();
  EXPECT_EQ(e.epoch, 0);
  EXPECT_EQ(e.ranks, 1);
  EXPECT_FALSE(e.unterminated);
  EXPECT_EQ(e.mode, model::IoMode::kSync);
  EXPECT_NEAR(e.costs.t_comp, 2.0, 1e-12);
  EXPECT_NEAR(e.costs.t_io, 0.5, 1e-12);
  EXPECT_NEAR(e.costs.t_transact, 0.0, 1e-12);
  EXPECT_NEAR(e.observed_seconds, 2.5, 1e-12);
  // Eq. 2a: t_sync = t_io + t_comp = 2.5 — exact, zero drift.
  EXPECT_NEAR(e.predicted_seconds, 2.5, 1e-12);
  EXPECT_NEAR(e.relative_error(), 0.0, 1e-12);
  EXPECT_EQ(report.orphan_records, 0u);
}

TEST(EpochAnalyzerTest, UnterminatedEpochIsFlaggedAndExcluded) {
  EpochAnalyzer analyzer;
  // Epoch 0 terminates normally; epoch 1 never sees kEnd (e.g. the
  // workload crashed mid-epoch or the scope outlives the report).
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 0.0));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 0, 1.0));
  analyzer.on_io(record(0, 1.0, 0.25, 0.25, /*async=*/false));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 1.25));

  analyzer.on_epoch_event(event(Kind::kBegin, 1, 0, 2.0));
  analyzer.on_io(record(0, 2.5, 0.1, 0.1, /*async=*/false));

  const EpochReport report = analyzer.report();
  ASSERT_EQ(report.epochs.size(), 2u);
  EXPECT_FALSE(report.epochs[0].unterminated);
  EXPECT_TRUE(report.epochs[1].unterminated);
  // The unterminated epoch still shows its provisional reconstruction...
  EXPECT_NEAR(report.epochs[1].costs.t_io, 0.1, 1e-12);
  // ...but only terminated epochs enter the Eq. 1 drift aggregates.
  EXPECT_NEAR(report.observed_app_seconds, 1.25, 1e-12);
  EXPECT_NE(report.table().find("[unterminated]"), std::string::npos);
}

TEST(EpochAnalyzerTest, AsyncZeroOverlapClassifiesAsSlowdown) {
  EpochAnalyzer analyzer;
  // Fig. 1c: no computation to hide behind — the epoch pays the staging
  // copy (0.2 s) and then waits out the full background transfer (1.0 s).
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 0.0));
  analyzer.on_io(record(0, 0.0, 0.2, 1.2, /*async=*/true));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 1.2));

  const EpochReport report = analyzer.report();
  ASSERT_EQ(report.epochs.size(), 1u);
  const EpochStats& e = report.epochs.front();
  EXPECT_EQ(e.mode, model::IoMode::kAsync);
  EXPECT_NEAR(e.costs.t_comp, 0.0, 1e-12);
  EXPECT_NEAR(e.costs.t_transact, 0.2, 1e-12);
  EXPECT_NEAR(e.costs.t_io, 1.0, 1e-12);
  EXPECT_EQ(e.scenario, model::OverlapScenario::kSlowdown);
  // Eq. 2b: max(0, 1.0 - 0) + 0.2 = 1.2 — matches the observed span.
  EXPECT_NEAR(e.predicted_seconds, 1.2, 1e-12);
  EXPECT_NEAR(e.relative_error(), 0.0, 1e-12);
  // Nothing was hidden: zero overlap efficiency.
  EXPECT_NEAR(e.overlap_efficiency, 0.0, 1e-9);
}

TEST(EpochAnalyzerTest, MultiRankUsesSlowestRankPerPhase) {
  EpochAnalyzer analyzer;
  // Eq. 3: each phase lasts as long as its slowest rank.  Rank 0 has
  // the longer compute (3.0 vs 1.0); rank 1 the longer background
  // transfer (2.0 vs 0.5) and staging copy (0.2 vs 0.1).
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 0.0));
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 1, 0.1));
  analyzer.on_io(record(0, 0.0, 0.1, 0.6, /*async=*/true));
  analyzer.on_io(record(1, 0.1, 0.2, 2.2, /*async=*/true));
  analyzer.on_epoch_event(event(Kind::kComputeStart, 0, 0, 0.1));
  analyzer.on_epoch_event(event(Kind::kComputeStart, 0, 1, 0.3));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 0, 3.1));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 1, 1.3));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 3.2));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 1, 3.3));

  const EpochReport report = analyzer.report();
  ASSERT_EQ(report.epochs.size(), 1u);
  const EpochStats& e = report.epochs.front();
  EXPECT_EQ(e.ranks, 2);
  ASSERT_EQ(e.per_rank.size(), 2u);
  // Component maxima across ranks, not a single slowest rank.
  EXPECT_NEAR(e.costs.t_comp, 3.0, 1e-12);      // rank 0
  EXPECT_NEAR(e.costs.t_io, 2.0, 1e-12);        // rank 1: 2.2 - 0.2
  EXPECT_NEAR(e.costs.t_transact, 0.2, 1e-12);  // rank 1
  // Observed: earliest begin (0.0) to latest end (3.3).
  EXPECT_NEAR(e.observed_seconds, 3.3, 1e-12);
  // Per-rank reconstructions stay individually visible.
  EXPECT_NEAR(e.per_rank[0].t_comp, 3.0, 1e-12);
  EXPECT_NEAR(e.per_rank[1].t_comp, 1.0, 1e-12);
  EXPECT_NEAR(e.per_rank[1].t_io, 2.0, 1e-12);
}

TEST(EpochAnalyzerTest, SiblingBackgroundWindowsAreNotDoubleCounted) {
  EpochAnalyzer analyzer;
  // Two async writes on one serialized background stream: op B spends
  // [1.0, 2.0] queued behind op A ([1.0, 2.0] service) and is serviced
  // in [2.0, 3.0].  Summing per-op durations would report 3.0 s of
  // t_io; the interval union reports the 2.0 s the stream was busy.
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 1.0));
  analyzer.on_io(record(0, 1.0, 0.0, 1.0, /*async=*/true));
  analyzer.on_io(record(0, 1.0, 0.0, 2.0, /*async=*/true));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 3.0));

  const EpochReport report = analyzer.report();
  ASSERT_EQ(report.epochs.size(), 1u);
  EXPECT_NEAR(report.epochs.front().costs.t_io, 2.0, 1e-12);
}

TEST(EpochAnalyzerTest, RecordsOutsideAnyEpochCountAsOrphans) {
  EpochAnalyzer analyzer;
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 10.0));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 11.0));
  analyzer.on_io(record(0, 5.0, 0.1, 0.1, /*async=*/false));   // before
  analyzer.on_io(record(0, 12.0, 0.1, 0.1, /*async=*/false));  // after
  analyzer.on_io(record(3, 10.5, 0.1, 0.1, /*async=*/false));  // other rank

  const EpochReport report = analyzer.report();
  EXPECT_EQ(report.orphan_records, 3u);
  ASSERT_EQ(report.epochs.size(), 1u);
  EXPECT_EQ(report.epochs.front().ops, 0);
}

TEST(EpochAnalyzerTest, LiveDriftAlertFiresAtScopeEnd) {
  EpochAnalyzer analyzer;
  // Observed 4.0 s but the model predicts 1.0 s (sync: 0.5 compute +
  // 0.5 I/O): 300% drift, far past the 25% alert threshold.
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 0.0));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 0, 0.5));
  analyzer.on_io(record(0, 0.5, 0.5, 0.5, /*async=*/false));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 4.0));
  EXPECT_EQ(analyzer.drift_alerts(), 1u);

  // A well-predicted epoch does not alert.
  analyzer.on_epoch_event(event(Kind::kBegin, 1, 0, 10.0));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 1, 0, 10.5));
  analyzer.on_io(record(0, 10.5, 0.5, 0.5, /*async=*/false));
  analyzer.on_epoch_event(event(Kind::kEnd, 1, 0, 11.0));
  EXPECT_EQ(analyzer.drift_alerts(), 1u);

  const EpochReport report = analyzer.report();
  EXPECT_EQ(report.drift_alerts, 1u);
  EXPECT_EQ(report.worst_epoch, 0);
}

TEST(EpochAnalyzerTest, EpochScopeEmitsThroughSinkRegistry) {
  auto analyzer = std::make_shared<EpochAnalyzer>();
  analyzer->attach();
  // The scopes take their rank from the thread's tag: rank 1 of 2.
  const int world = 0;
  debug::ScopedThreadRole rank1(debug::ThreadRole::kPmpiRank, 1, &world, 2);
  {
    EpochScope scope(7);
    scope.compute_done();
  }  // RAII end
  {
    EpochScope scope(8);
    scope.end();
    scope.end();  // idempotent: a second end is ignored
  }
  analyzer->detach();
  {
    EpochScope scope(9);  // no sink attached: dropped
  }

  const EpochReport report = analyzer->report();
  ASSERT_EQ(report.epochs.size(), 2u);
  EXPECT_EQ(report.epochs[0].epoch, 7);
  EXPECT_EQ(report.epochs[1].epoch, 8);
  EXPECT_FALSE(report.epochs[0].unterminated);
  EXPECT_FALSE(report.epochs[1].unterminated);
}

TEST(EpochAnalyzerTest, ResetClearsAccumulatedState) {
  EpochAnalyzer analyzer;
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 0.0));
  analyzer.on_io(record(0, 0.2, 0.1, 0.1, /*async=*/false));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 1.0));
  analyzer.on_io(record(0, 50.0, 0.1, 0.1, /*async=*/false));
  EXPECT_EQ(analyzer.report().epochs.size(), 1u);

  analyzer.reset();
  const EpochReport report = analyzer.report();
  EXPECT_TRUE(report.epochs.empty());
  EXPECT_EQ(report.orphan_records, 0u);
  EXPECT_EQ(report.drift_alerts, 0u);
}

TEST(EpochAnalyzerTest, ChromeJsonContainsEpochAndIoLanes) {
  EpochAnalyzer analyzer;
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 0.0));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 0, 0.5));
  analyzer.on_io(record(0, 0.5, 0.1, 0.6, /*async=*/true));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 1.1));

  const std::string json = analyzer.report().to_chrome_json();
  EXPECT_NE(json.find("\"epoch#0\""), std::string::npos);
  EXPECT_NE(json.find("\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"write\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(EpochAnalyzerTest, ChromeJsonKeepsMicrosecondsLateInARun) {
  // Two I/O spans 1 us apart, 2 s after the first epoch begin: the
  // default six significant digits would render both as 2e+06.
  EpochAnalyzer analyzer;
  analyzer.on_epoch_event(event(Kind::kBegin, 0, 0, 10.0));
  analyzer.on_epoch_event(event(Kind::kComputeDone, 0, 0, 11.0));
  analyzer.on_io(record(0, 12.0, 0.1, 0.1, /*async=*/false));
  analyzer.on_io(record(0, 12.000001, 0.1, 0.1, /*async=*/false));
  analyzer.on_epoch_event(event(Kind::kEnd, 0, 0, 13.0));

  const std::string json = analyzer.report().to_chrome_json();
  std::vector<std::string> write_ts;
  for (auto pos = json.find("{\"name\":\"write\""); pos != std::string::npos;
       pos = json.find("{\"name\":\"write\"", pos + 1)) {
    const auto ts = json.find("\"ts\":", pos) + 5;
    write_ts.push_back(json.substr(ts, json.find(',', ts) - ts));
  }
  ASSERT_EQ(write_ts.size(), 2u) << json;
  EXPECT_EQ(write_ts[0], "2000000.000");
  EXPECT_EQ(write_ts[1], "2000001.000");
}

}  // namespace
}  // namespace apio::obs
