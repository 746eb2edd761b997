// Fixture-based tests for the static analyzer library behind
// tools/apio_analyze.  Each fixture is a small translation unit under
// tests/analysis_fixtures/ that the build compiles into GCC dumps of its
// own (apio_gcc_dumps); a test loads one fixture's dumps, runs the flow
// passes (lock-rank inversion, thread-context blocking) and asserts the
// exact rule/file/line and call-chain witness of every finding, plus the
// waiver, stale-waiver and baseline machinery.  A final test runs the
// analyzer over this repo's own dumps with the checked-in baseline, so
// the suite fails the moment the real tree regresses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/gcc_model.h"
#include "analysis/passes.h"
#include "analysis/source_model.h"

namespace apio::analysis {
namespace {

namespace fs = std::filesystem;

/// One fixture: its source text (for line numbers) and the analysis of
/// the dumps GCC wrote for it.
class Fixture {
 public:
  explicit Fixture(const std::string& name)
      : file_("tests/analysis_fixtures/" + name + ".cpp"),
        model_(load_model(APIO_SOURCE_DIR, fs::path(APIO_FIXTURE_DUMPS) /
                                               ("analysis_fixture_" + name + ".dir"))) {
    std::ifstream in(fs::path(APIO_SOURCE_DIR) / file_);
    std::ostringstream buf;
    buf << in.rdbuf();
    source_ = buf.str();
  }

  Analysis run(const std::set<std::string>& baseline = {}) const {
    return analyze(model_, baseline);
  }

  /// 1-based line of the first occurrence of `needle` in the fixture.
  int line_of(const std::string& needle) const {
    const std::size_t pos = source_.find(needle);
    EXPECT_NE(pos, std::string::npos) << "fixture needle not found: " << needle;
    if (pos == std::string::npos) return 0;
    return 1 + static_cast<int>(std::count(
                   source_.begin(), source_.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
  }

  const std::string& file() const { return file_; }

 private:
  std::string file_;
  std::string source_;
  CodeModel model_;
};

// ---------------------------------------------------------------------------
// Lock-rank pass

TEST(AnalysisLockRankTest, DirectInversionReportedWithSiteWitness) {
  const Fixture fx("lock_direct");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleLockRank);
  EXPECT_EQ(f.file, fx.file());
  EXPECT_EQ(f.line, fx.line_of("std::lock_guard out(outer_);"));
  EXPECT_EQ(f.function, "Cache::refresh");
  EXPECT_EQ(f.message,
            "acquires kVolConnector (rank 10) while holding kStorageBase (rank 50); "
            "the declared order requires strictly increasing ranks");
  EXPECT_EQ(f.key, "lock-rank|Cache::refresh|kStorageBase>kVolConnector|direct");
  ASSERT_EQ(f.witness.size(), 1u);
  EXPECT_EQ(f.witness[0].function, "Cache::refresh");
  EXPECT_EQ(f.witness[0].file, fx.file());
  EXPECT_EQ(f.witness[0].line, f.line);
  EXPECT_EQ(f.witness[0].note, "acquires kVolConnector");
}

TEST(AnalysisLockRankTest, ReacquisitionOfSameRankReported) {
  const Analysis result = Fixture("lock_reacquire").run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.key, "lock-rank|Twice::both|kSchedQueue>kSchedQueue|direct");
  EXPECT_EQ(f.message,
            "may re-acquire kSchedQueue (rank 45) while holding kSchedQueue (rank 45); "
            "the declared order requires strictly increasing ranks");
}

TEST(AnalysisLockRankTest, TransitiveInversionCarriesFullCallChain) {
  const Fixture fx("lock_transitive");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleLockRank);
  EXPECT_EQ(f.file, fx.file());
  EXPECT_EQ(f.line, fx.line_of("store_.compact();"));
  EXPECT_EQ(f.function, "Top::run");
  EXPECT_EQ(f.message,
            "call to Store::compact may acquire kVolConnector (rank 10) while "
            "kStorageBase (rank 50) is held");
  EXPECT_EQ(f.key, "lock-rank|Top::run|kStorageBase>kVolConnector|Store::compact");

  // Witness: the holding call site, then the path inside the callee
  // down to the function that directly acquires the inverted rank.
  ASSERT_EQ(f.witness.size(), 3u);
  EXPECT_EQ(f.witness[0].function, "Top::run");
  EXPECT_EQ(f.witness[0].line, fx.line_of("store_.compact();"));
  EXPECT_EQ(f.witness[0].note, "calls compact holding kStorageBase");
  EXPECT_EQ(f.witness[1].function, "Store::compact");
  EXPECT_EQ(f.witness[1].line, fx.line_of("  flush();"));
  EXPECT_EQ(f.witness[1].note, "calls flush");
  EXPECT_EQ(f.witness[2].function, "Store::flush");
  EXPECT_EQ(f.witness[2].line, fx.line_of("std::lock_guard lock(outer_);"));
  EXPECT_EQ(f.witness[2].note, "acquires kVolConnector");
}

TEST(AnalysisLockRankTest, IncreasingOrderIsClean) {
  const Analysis result = Fixture("lock_increasing").run();
  EXPECT_TRUE(result.clean());
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalysisLockRankTest, SequentialScopedHoldsDoNotNest) {
  EXPECT_TRUE(Fixture("lock_sequential").run().clean())
      << "scoped holds must not leak across blocks";
}

TEST(AnalysisLockRankTest, EarlyReturnDoesNotEndTheHold) {
  const Fixture fx("lock_early_return");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].line, fx.line_of("std::lock_guard late(outer_);"));
  EXPECT_EQ(result.findings[0].key,
            "lock-rank|Early::run|kStorageBase>kVolConnector|direct");
}

// ---------------------------------------------------------------------------
// Thread-context pass

TEST(AnalysisThreadContextTest, SleepReachableFromStreamRootIsFlagged) {
  const Fixture fx("stream_sleep");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleThreadContext);
  EXPECT_EQ(f.file, fx.file());
  EXPECT_EQ(f.line, fx.line_of("std::this_thread::sleep_for"));
  EXPECT_EQ(f.function, "Pump::backoff");
  EXPECT_EQ(f.message,
            "blocking sleep_for reachable from stream context Pump::run_loop");
  EXPECT_EQ(f.key, "thread-context|Pump::run_loop|Pump::backoff|sleep_for");

  ASSERT_EQ(f.witness.size(), 3u);
  EXPECT_EQ(f.witness[0].function, "Pump::run_loop");
  EXPECT_EQ(f.witness[0].line, fx.line_of("  drain();"));
  EXPECT_EQ(f.witness[0].note, "calls drain");
  EXPECT_EQ(f.witness[1].function, "Pump::drain");
  EXPECT_EQ(f.witness[1].line, fx.line_of("  backoff();"));
  EXPECT_EQ(f.witness[1].note, "calls backoff");
  EXPECT_EQ(f.witness[2].function, "Pump::backoff");
  EXPECT_EQ(f.witness[2].line, f.line);
  EXPECT_EQ(f.witness[2].note, "blocks in sleep_for");
}

TEST(AnalysisThreadContextTest, CvWaitOnDeclaredMemberIsFlagged) {
  const Fixture fx("stream_cv");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.message, "blocking wait reachable from stream context Gate::pump");
  EXPECT_EQ(f.key, "thread-context|Gate::pump|Gate::pump|wait");
  EXPECT_EQ(f.line, fx.line_of("cv_.wait(lock"));
}

TEST(AnalysisThreadContextTest, AtomicWaitOnDeclaredMemberIsFlagged) {
  // C++20 atomic waits park the thread like a condition variable (a
  // vol::Request completes on one).
  const Fixture fx("stream_atomic");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleThreadContext);
  EXPECT_EQ(f.message, "blocking wait reachable from stream context Latch::pump");
  EXPECT_EQ(f.key, "thread-context|Latch::pump|Latch::pump|wait");
  EXPECT_EQ(f.line, fx.line_of("flag_.wait(0);"));
}

TEST(AnalysisThreadContextTest, RankAssertReachableFromStreamRootIsFlagged) {
  const Fixture fx("stream_rank");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleThreadContext);
  EXPECT_EQ(f.function, "Mixed::publish");
  EXPECT_EQ(f.line, fx.line_of("APIO_ASSERT_ON_RANK(this, 0);"));
  EXPECT_EQ(f.message,
            "Mixed::publish asserts rank context but is reachable from "
            "stream context Mixed::stream_entry");
  EXPECT_EQ(f.key, "thread-context|Mixed::stream_entry|Mixed::publish|rank-context");
  ASSERT_FALSE(f.witness.empty());
  EXPECT_EQ(f.witness.back().note, "asserts rank context");
}

TEST(AnalysisThreadContextTest, SleepWithoutStreamRootIsClean) {
  EXPECT_TRUE(Fixture("rank_sleep").run().clean());
}

TEST(AnalysisThreadContextTest, VirtualCallReachesEveryOverride) {
  const Fixture fx("stream_virtual");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.key, "thread-context|Pipe::run|SlowSink::put|sleep_for");
  ASSERT_EQ(f.witness.size(), 2u);
  EXPECT_EQ(f.witness[0].line, fx.line_of("sink_->put();"));
  EXPECT_EQ(f.witness[0].note, "calls put");
}

TEST(AnalysisThreadContextTest, AddressTakenInvokerIsCallableWhereTaken) {
  const Fixture fx("stream_fn_pointer");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.key, "thread-context|Layer::write|Layer::slow|sleep_for");
  ASSERT_GE(f.witness.size(), 3u);
  EXPECT_EQ(f.witness[0].function, "Layer::write");
  EXPECT_EQ(f.witness[0].line, fx.line_of("Transfer transfer(body);"));
  EXPECT_EQ(f.witness.back().function, "Layer::slow");
}

// ---------------------------------------------------------------------------
// Waivers, stale waivers, baseline

TEST(AnalysisWaiverTest, WaiverSuppressesAndStaleWaiverIsReported) {
  const Fixture fx("waivers");
  const Analysis result = fx.run();
  EXPECT_TRUE(result.findings.empty()) << "waived finding must not surface";
  ASSERT_EQ(result.stale_waivers.size(), 1u);
  EXPECT_EQ(result.stale_waivers[0].file, fx.file());
  EXPECT_EQ(result.stale_waivers[0].line, fx.line_of("int unused = 0;"));
  EXPECT_EQ(result.stale_waivers[0].rule, kRuleLockRank);
  EXPECT_FALSE(result.clean()) << "stale waivers fail the run";

  // Exact report text for the stale waiver and the summary line.
  std::ostringstream os;
  print_text(result, os);
  const std::string expected =
      fx.file() + ":" + std::to_string(result.stale_waivers[0].line) +
      ": [stale-waiver] allow(lock-rank) matches no lock-rank finding\n"
      "apio_analyze: 0 finding(s), 1 stale waiver(s)\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(AnalysisBaselineTest, BaselinedFindingIsQuietAndRoundTrips) {
  const Fixture fx("lock_direct");
  const Analysis unfiltered = fx.run();
  ASSERT_EQ(unfiltered.findings.size(), 1u);
  const std::string key = unfiltered.findings[0].key;

  // Write the baseline the CLI would produce, read it back, re-run.
  const fs::path bl = fs::temp_directory_path() /
                      ("apio_analysis_baseline_" + std::to_string(::getpid()) + ".json");
  {
    std::ofstream out(bl);
    out << baseline_json(unfiltered);
  }
  std::set<std::string> keys;
  std::string err;
  ASSERT_TRUE(read_baseline(bl, keys, err)) << err;
  fs::remove(bl);
  EXPECT_EQ(keys, std::set<std::string>{key});

  const Analysis filtered = fx.run(keys);
  EXPECT_TRUE(filtered.clean());
  EXPECT_TRUE(filtered.findings.empty());
  ASSERT_EQ(filtered.baselined.size(), 1u);
  EXPECT_EQ(filtered.baselined[0].key, key);

  std::ostringstream os;
  print_text(filtered, os);
  EXPECT_EQ(os.str(), "apio_analyze: clean (1 baselined)\n");
}

TEST(AnalysisBaselineTest, MalformedBaselineIsRejected) {
  const fs::path bl = fs::temp_directory_path() /
                      ("apio_analysis_bad_" + std::to_string(::getpid()) + ".json");
  {
    std::ofstream out(bl);
    out << "{\"version\": 1}\n";
  }
  std::set<std::string> keys;
  std::string err;
  EXPECT_FALSE(read_baseline(bl, keys, err));
  fs::remove(bl);
  EXPECT_NE(err.find("findings"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report formats

TEST(AnalysisReportTest, TextAndJsonCarryFileLineRuleAndWitness) {
  const Fixture fx("stream_sleep");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const std::string sleep = std::to_string(fx.line_of("std::this_thread::sleep_for"));
  const std::string loc = fx.file() + ":";

  std::ostringstream os;
  print_text(result, os);
  const std::string expected =
      loc + sleep +
      ": [thread-context] blocking sleep_for reachable from stream context "
      "Pump::run_loop\n"
      "    #0 Pump::run_loop (" + loc + std::to_string(fx.line_of("  drain();")) +
      ") calls drain\n"
      "    #1 Pump::drain (" + loc + std::to_string(fx.line_of("  backoff();")) +
      ") calls backoff\n"
      "    #2 Pump::backoff (" + loc + sleep + ") blocks in sleep_for\n"
      "apio_analyze: 1 finding(s), 0 stale waiver(s)\n";
  EXPECT_EQ(os.str(), expected);

  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"tool\": \"apio_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"thread-context\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"" + fx.file() + "\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": " + sleep), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"thread-context|Pump::run_loop|Pump::backoff|sleep_for\""),
            std::string::npos);
  EXPECT_NE(json.find("\"note\": \"blocks in sleep_for\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Source-model details the passes depend on

TEST(AnalysisSourceModelTest, StripNoncodeHandlesCommentsAndStrings) {
  StripState state;
  EXPECT_EQ(strip_noncode("int a; // tail comment", state), "int a; ");
  EXPECT_EQ(strip_noncode("auto s = \"lock_guard(x)\";", state),
            "auto s = \"\";");
  EXPECT_EQ(strip_noncode("f(/* inline */ 1);", state), "f( 1);");
  EXPECT_EQ(strip_noncode("start /* open", state), "start ");
  EXPECT_TRUE(state.in_block_comment);
  EXPECT_EQ(strip_noncode("still comment */ int b;", state), " int b;");
  EXPECT_FALSE(state.in_block_comment);
  EXPECT_EQ(strip_noncode("auto n = 1'000'000;", state), "auto n = 1'000'000;");
}

TEST(AnalysisSourceModelTest, WaiverSyntaxIsShared) {
  EXPECT_TRUE(waived("x();  // apio-lint: allow(thread-context)",
                     "thread-context"));
  EXPECT_FALSE(waived("x();  // apio-lint: allow(thread-context)",
                      "lock-rank"));
  EXPECT_FALSE(waived("x();", "lock-rank"));
}

TEST(AnalysisSourceModelTest, LambdaBodiesDoNotInheritEnclosingHolds) {
  // A continuation built under a lock runs later, outside it: the
  // lambda's acquisition is not nested under the enclosing hold, and
  // unlock() ends the hold before the lambda runs.
  EXPECT_TRUE(Fixture("lock_lambda").run().clean())
      << "holds must not leak into lambda bodies";
}

// ---------------------------------------------------------------------------
// The real repository

TEST(AnalysisRepoTest, WholeRepoIsCleanModuloCheckedInBaseline) {
  const fs::path repo = APIO_SOURCE_DIR;
  std::set<std::string> baseline;
  std::string err;
  ASSERT_TRUE(read_baseline(repo / "tools/analysis/baseline.json", baseline, err)) << err;

  const CodeModel model = load_model(repo, APIO_REPO_DUMPS);
  EXPECT_FALSE(model.rank_names.empty()) << "no RankedMutex instance in the dumps";
  EXPECT_GT(model.functions.size(), 1000u) << "the dumps look too sparse";

  const Analysis result = analyze(model, baseline);
  std::ostringstream os;
  print_text(result, os);
  EXPECT_TRUE(result.clean()) << os.str();
}

}  // namespace
}  // namespace apio::analysis
