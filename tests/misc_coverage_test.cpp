// Remaining coverage: replay timing reproduction, non-shared throttle
// channels, connector/advisor interactions not covered elsewhere, and
// log-level plumbing.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>

#include "common/debug/thread_role.h"
#include "common/log.h"
#include "storage/memory_backend.h"
#include "storage/throttled_backend.h"
#include "vol/adaptive_connector.h"
#include "vol/native_connector.h"
#include "vol/trace.h"

namespace apio {
namespace {

TEST(ReplayTimingTest, TimeScaleReproducesComputeGaps) {
  // A trace with a 100 ms gap between two writes; replay at scale 0.5
  // must take >= 50 ms, replay at scale 0 should be near-instant.
  vol::Trace trace;
  for (int i = 0; i < 2; ++i) {
    vol::IoRecord e;
    e.op = vol::IoOp::kWrite;
    e.dataset_path = "d";
    e.selection = vol::selection_to_token(
        h5::Selection::offsets({static_cast<std::uint64_t>(i) * 8}, {8}));
    e.bytes = 8;
    e.issue_time = 0.1 * i;
    trace.append(e);
  }

  auto run_with_scale = [&](double scale) {
    auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
    file->root().create_dataset("d", h5::Datatype::kUInt8, {16});
    vol::NativeConnector connector(file);
    vol::ReplayOptions options;
    options.time_scale = scale;
    const auto t0 = std::chrono::steady_clock::now();
    vol::replay_trace(trace, connector, options);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  EXPECT_LT(run_with_scale(0.0), 0.05);
  EXPECT_GE(run_with_scale(0.5), 0.045);
}

TEST(AdaptiveConnectorTest2, ReportedRanksFlowToAdvisorSamples) {
  // Records the rank count of every record the advisor also receives.
  class RankRecorder final : public vol::IoObserver {
   public:
    void on_io(const vol::IoRecord& record) override {
      std::lock_guard<std::mutex> lock(mutex_);
      ranks_.push_back(record.ranks);
    }
    std::vector<int> ranks() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return ranks_;
    }

   private:
    mutable std::mutex mutex_;
    std::vector<int> ranks_;
  };

  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  vol::AdaptiveConnector connector(file);
  auto recorder = std::make_shared<RankRecorder>();
  connector.add_observer(recorder);
  const int world = 0;
  debug::ScopedThreadRole rank0(debug::ThreadRole::kPmpiRank, 0, &world, 48);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {4096});
  std::vector<std::uint8_t> payload(1024, 1);
  connector
      .dataset_write(ds, h5::Selection::offsets({0}, {1024}),
                     std::as_bytes(std::span<const std::uint8_t>(payload)))
      ->wait();
  connector.wait_all();
  EXPECT_EQ(recorder->ranks(), std::vector<int>{48});
  EXPECT_EQ(connector.advisor()->sample_count(), 1u);
  connector.close();
}

TEST(LogTest, LevelsGateOutput) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Macro below the threshold must not evaluate its stream expression.
  int evaluations = 0;
  APIO_LOG_DEBUG("side effect " << ++evaluations);
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kDebug);
  APIO_LOG_DEBUG("side effect " << ++evaluations);
  EXPECT_EQ(evaluations, 1);
  set_log_level(before);
}

TEST(TraceProfileTest, FlushOnlyTraceProfiles) {
  vol::Trace trace;
  vol::IoRecord e;
  e.op = vol::IoOp::kFlush;
  trace.append(e);
  vol::IoProfile profile(trace);
  EXPECT_EQ(profile.total_operations(), 1u);
  EXPECT_EQ(profile.total_bytes(), 0u);
  EXPECT_TRUE(profile.per_dataset().empty());
}

}  // namespace
}  // namespace apio
