// Fixture-based tests for the static analyzer library behind
// tools/apio_analyze: seeded repos in a temp directory exercise each
// flow pass (lock-rank inversion, thread-context blocking, unchecked
// I/O outcomes) and assert the exact rule/file/line and call-chain
// witness of every finding, plus the waiver, stale-waiver and baseline
// machinery.  A final test runs the analyzer over this repo itself with
// the checked-in baseline, so the suite fails the moment the real tree
// regresses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/call_graph.h"
#include "analysis/passes.h"
#include "analysis/source_model.h"

namespace apio::analysis {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixture plumbing

/// A miniature lock-rank header mirroring the real one's shape: the
/// table loader only needs the `enum class LockRank` block with
/// `kName = N,` enumerators.
constexpr const char* kLockRankHeader = R"(#pragma once
namespace apio::debug {
enum class LockRank : int {
  kOuter = 10,
  kMiddle = 30,
  kInner = 50,
};
template <LockRank Rank>
class RankedMutex {};
}  // namespace apio::debug
)";

/// 1-based line of the first occurrence of `needle` in `text`.
int line_of(const std::string& text, const std::string& needle) {
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "fixture needle not found: " << needle;
  if (pos == std::string::npos) return 0;
  return 1 + static_cast<int>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

/// Writes fixture files under a unique temp root (removed on teardown),
/// builds the CodeModel over them and runs the passes.
class AnalyzerFixture {
 public:
  AnalyzerFixture() {
    // ctest runs each test as its own process, so a process-local
    // counter alone collides under parallel runs; key the root on the
    // pid as well.
    static int counter = 0;
    root_ = fs::temp_directory_path() /
            ("apio_analysis_fixture_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::remove_all(root_);
    fs::create_directories(root_ / "src/common/debug");
    write("src/common/debug/lock_rank.h", kLockRankHeader);
  }

  ~AnalyzerFixture() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << text;
  }

  Analysis run(const std::set<std::string>& baseline = {}) {
    model_ = build_model(root_, {"src"});
    return analyze(model_, baseline);
  }

  const fs::path& root() const { return root_; }
  const CodeModel& model() const { return model_; }

 private:
  fs::path root_;
  CodeModel model_;
};

// ---------------------------------------------------------------------------
// Lock-rank pass

TEST(AnalysisLockRankTest, DirectInversionReportedWithSiteWitness) {
  AnalyzerFixture fx;
  const std::string source = R"(#include "common/debug/lock_rank.h"
namespace apio {
class Cache {
 public:
  void refresh();
 private:
  debug::RankedMutex<debug::LockRank::kInner> inner_;
  debug::RankedMutex<debug::LockRank::kOuter> outer_;
};
inline void Cache::refresh() {
  std::lock_guard in(inner_);
  std::lock_guard out(outer_);
}
}  // namespace apio
)";
  fx.write("src/cache.h", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleLockRank);
  EXPECT_EQ(f.file, "src/cache.h");
  EXPECT_EQ(f.line, line_of(source, "std::lock_guard out(outer_);"));
  EXPECT_EQ(f.function, "Cache::refresh");
  EXPECT_EQ(f.message,
            "acquires kOuter (rank 10) while holding kInner (rank 50); "
            "the declared order requires strictly increasing ranks");
  EXPECT_EQ(f.key, "lock-rank|Cache::refresh|kInner>kOuter|direct");
  ASSERT_EQ(f.witness.size(), 1u);
  EXPECT_EQ(f.witness[0].function, "Cache::refresh");
  EXPECT_EQ(f.witness[0].file, "src/cache.h");
  EXPECT_EQ(f.witness[0].line, f.line);
  EXPECT_EQ(f.witness[0].note, "acquires kOuter");
}

TEST(AnalysisLockRankTest, ReacquisitionOfSameRankReported) {
  AnalyzerFixture fx;
  const std::string source = R"(#include "common/debug/lock_rank.h"
namespace apio {
class Twice {
 public:
  void both();
 private:
  debug::RankedMutex<debug::LockRank::kMiddle> a_;
  debug::RankedMutex<debug::LockRank::kMiddle> b_;
};
inline void Twice::both() {
  std::lock_guard la(a_);
  std::lock_guard lb(b_);
}
}  // namespace apio
)";
  fx.write("src/twice.h", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.key, "lock-rank|Twice::both|kMiddle>kMiddle|direct");
  EXPECT_EQ(f.message,
            "may re-acquire kMiddle (rank 30) while holding kMiddle (rank 30); "
            "the declared order requires strictly increasing ranks");
}

TEST(AnalysisLockRankTest, TransitiveInversionCarriesFullCallChain) {
  AnalyzerFixture fx;
  const std::string header = R"(#pragma once
#include "common/debug/lock_rank.h"
namespace apio {
class Store {
 public:
  void flush();
  void compact();
 private:
  debug::RankedMutex<debug::LockRank::kOuter> outer_;
};
class Top {
 public:
  void run();
 private:
  Store store_;
  debug::RankedMutex<debug::LockRank::kInner> inner_;
};
}  // namespace apio
)";
  const std::string source = R"(#include "store.h"
namespace apio {
void Store::flush() {
  std::lock_guard lock(outer_);
}
void Store::compact() {
  flush();
}
void Top::run() {
  std::lock_guard lock(inner_);
  store_.compact();
}
}  // namespace apio
)";
  fx.write("src/store.h", header);
  fx.write("src/store.cpp", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleLockRank);
  EXPECT_EQ(f.file, "src/store.cpp");
  EXPECT_EQ(f.line, line_of(source, "store_.compact();"));
  EXPECT_EQ(f.function, "Top::run");
  EXPECT_EQ(f.message,
            "call to Store::compact may acquire kOuter (rank 10) while "
            "kInner (rank 50) is held");
  EXPECT_EQ(f.key, "lock-rank|Top::run|kInner>kOuter|Store::compact");

  // Witness: the holding call site, then the path inside the callee
  // down to the function that directly acquires the inverted rank.
  ASSERT_EQ(f.witness.size(), 3u);
  EXPECT_EQ(f.witness[0].function, "Top::run");
  EXPECT_EQ(f.witness[0].line, line_of(source, "store_.compact();"));
  EXPECT_EQ(f.witness[0].note, "calls compact holding kInner");
  EXPECT_EQ(f.witness[1].function, "Store::compact");
  EXPECT_EQ(f.witness[1].line, line_of(source, "flush();"));
  EXPECT_EQ(f.witness[1].note, "calls flush");
  EXPECT_EQ(f.witness[2].function, "Store::flush");
  EXPECT_EQ(f.witness[2].line,
            line_of(source, "std::lock_guard lock(outer_);"));
  EXPECT_EQ(f.witness[2].note, "acquires kOuter");
}

TEST(AnalysisLockRankTest, IncreasingOrderIsClean) {
  AnalyzerFixture fx;
  fx.write("src/good.h", R"(#include "common/debug/lock_rank.h"
namespace apio {
class Good {
 public:
  void run();
 private:
  debug::RankedMutex<debug::LockRank::kOuter> outer_;
  debug::RankedMutex<debug::LockRank::kInner> inner_;
};
inline void Good::run() {
  std::lock_guard a(outer_);
  std::lock_guard b(inner_);
}
}  // namespace apio
)");
  const Analysis result = fx.run();
  EXPECT_TRUE(result.clean());
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalysisLockRankTest, SequentialScopedHoldsDoNotNest) {
  // Two locks taken in *separate* blocks never overlap, so kInner then
  // kOuter in sequence is legal.
  AnalyzerFixture fx;
  fx.write("src/seq.h", R"(#include "common/debug/lock_rank.h"
namespace apio {
class Seq {
 public:
  void run();
 private:
  debug::RankedMutex<debug::LockRank::kInner> inner_;
  debug::RankedMutex<debug::LockRank::kOuter> outer_;
};
inline void Seq::run() {
  {
    std::lock_guard a(inner_);
  }
  {
    std::lock_guard b(outer_);
  }
}
}  // namespace apio
)");
  const Analysis result = fx.run();
  EXPECT_TRUE(result.clean()) << "scoped holds must not leak across blocks";
}

// ---------------------------------------------------------------------------
// Thread-context pass

TEST(AnalysisThreadContextTest, SleepReachableFromStreamRootIsFlagged) {
  AnalyzerFixture fx;
  const std::string source = R"(#include "common/debug/thread_context.h"
namespace apio {
class Pump {
 public:
  void run_loop();
 private:
  void drain();
  void backoff();
};
void Pump::run_loop() {
  APIO_ASSERT_ON_STREAM();
  drain();
}
void Pump::drain() {
  backoff();
}
void Pump::backoff() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
}  // namespace apio
)";
  fx.write("src/pump.cpp", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleThreadContext);
  EXPECT_EQ(f.file, "src/pump.cpp");
  EXPECT_EQ(f.line, line_of(source, "std::this_thread::sleep_for"));
  EXPECT_EQ(f.function, "Pump::backoff");
  EXPECT_EQ(f.message,
            "blocking sleep_for reachable from stream context Pump::run_loop");
  EXPECT_EQ(f.key, "thread-context|Pump::run_loop|Pump::backoff|sleep_for");

  ASSERT_EQ(f.witness.size(), 3u);
  EXPECT_EQ(f.witness[0].function, "Pump::run_loop");
  EXPECT_EQ(f.witness[0].line, line_of(source, "  drain();"));
  EXPECT_EQ(f.witness[0].note, "calls drain");
  EXPECT_EQ(f.witness[1].function, "Pump::drain");
  EXPECT_EQ(f.witness[1].line, line_of(source, "  backoff();"));
  EXPECT_EQ(f.witness[1].note, "calls backoff");
  EXPECT_EQ(f.witness[2].function, "Pump::backoff");
  EXPECT_EQ(f.witness[2].line, f.line);
  EXPECT_EQ(f.witness[2].note, "blocks in sleep_for");
}

TEST(AnalysisThreadContextTest, CvWaitOnDeclaredMemberIsFlagged) {
  AnalyzerFixture fx;
  const std::string source = R"(namespace apio {
class Gate {
 public:
  void pump();
 private:
  std::condition_variable cv_;
};
void Gate::pump() {
  APIO_ASSERT_ON_STREAM();
  cv_.wait(lk);
}
}  // namespace apio
)";
  fx.write("src/gate.cpp", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.message,
            "blocking wait on cv_ reachable from stream context Gate::pump");
  EXPECT_EQ(f.key, "thread-context|Gate::pump|Gate::pump|wait");
  EXPECT_EQ(f.line, line_of(source, "cv_.wait(lk);"));
}

TEST(AnalysisThreadContextTest, AtomicWaitOnDeclaredMemberIsFlagged) {
  // C++20 atomic waits park the thread like a condition variable (a
  // vol::Request completes on one).
  AnalyzerFixture fx;
  const std::string source = R"(namespace apio {
class Latch {
 public:
  void pump();
 private:
  std::atomic<int> flag_{0};
};
void Latch::pump() {
  APIO_ASSERT_ON_STREAM();
  flag_.wait(0);
}
}  // namespace apio
)";
  fx.write("src/latch.cpp", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleThreadContext);
  EXPECT_EQ(f.message,
            "blocking wait on flag_ reachable from stream context Latch::pump");
  EXPECT_EQ(f.key, "thread-context|Latch::pump|Latch::pump|wait");
  EXPECT_EQ(f.line, line_of(source, "flag_.wait(0);"));
}

TEST(AnalysisThreadContextTest, RankAssertReachableFromStreamRootIsFlagged) {
  AnalyzerFixture fx;
  const std::string source = R"(namespace apio {
class Mixed {
 public:
  void stream_entry();
 private:
  void publish();
};
void Mixed::stream_entry() {
  APIO_ASSERT_ON_STREAM();
  publish();
}
void Mixed::publish() {
  APIO_ASSERT_ON_RANK();
}
}  // namespace apio
)";
  fx.write("src/mixed.cpp", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleThreadContext);
  EXPECT_EQ(f.function, "Mixed::publish");
  EXPECT_EQ(f.line, line_of(source, "APIO_ASSERT_ON_RANK();"));
  EXPECT_EQ(f.message,
            "Mixed::publish asserts rank context but is reachable from "
            "stream context Mixed::stream_entry");
  EXPECT_EQ(f.key,
            "thread-context|Mixed::stream_entry|Mixed::publish|rank-context");
  ASSERT_FALSE(f.witness.empty());
  EXPECT_EQ(f.witness.back().note, "asserts rank context");
}

TEST(AnalysisThreadContextTest, SleepWithoutStreamRootIsClean) {
  // Blocking is only a defect in stream context; plain rank-side code
  // may sleep freely.
  AnalyzerFixture fx;
  fx.write("src/plain.cpp", R"(namespace apio {
void throttle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
}  // namespace apio
)");
  const Analysis result = fx.run();
  EXPECT_TRUE(result.clean());
}

// ---------------------------------------------------------------------------
// Unchecked-outcome pass

TEST(AnalysisUncheckedOutcomeTest, DiscardedIoResultFlaggedCheckedUsesNot) {
  AnalyzerFixture fx;
  const std::string source = R"(namespace apio {
class Sink {
 public:
  unsigned long write_v(int extents);
  void flush_all();
  void flush_checked();
};
void Sink::flush_all() {
  write_v(1);
}
void Sink::flush_checked() {
  const auto n = write_v(2);
  if (n == 0) return;
  (void)write_v(3);
}
}  // namespace apio
)";
  fx.write("src/sink.cpp", source);

  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, kRuleUncheckedOutcome);
  EXPECT_EQ(f.file, "src/sink.cpp");
  EXPECT_EQ(f.line, line_of(source, "write_v(1);"));
  EXPECT_EQ(f.function, "Sink::flush_all");
  EXPECT_EQ(f.message,
            "result of write_v() is discarded; check it, or waive with a "
            "comment");
  EXPECT_EQ(f.key, "unchecked-outcome|Sink::flush_all|write_v");
  ASSERT_EQ(f.witness.size(), 1u);
  EXPECT_EQ(f.witness[0].note, "discards result of write_v");
}

TEST(AnalysisUncheckedOutcomeTest, RepeatedDiscardsGetOrdinalKeys) {
  AnalyzerFixture fx;
  fx.write("src/events.cpp", R"(namespace apio {
class Events {
 public:
  unsigned num_errors();
  void drain();
};
void Events::drain() {
  num_errors();
  num_errors();
}
}  // namespace apio
)");
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].key,
            "unchecked-outcome|Events::drain|num_errors");
  EXPECT_EQ(result.findings[1].key,
            "unchecked-outcome|Events::drain|num_errors|#2");
}

// ---------------------------------------------------------------------------
// Waivers, stale waivers, baseline

TEST(AnalysisWaiverTest, WaiverSuppressesAndStaleWaiverIsReported) {
  AnalyzerFixture fx;
  const std::string source = R"(namespace apio {
class W {
 public:
  unsigned long read_v(int extents);
  void skim();
};
void W::skim() {
  read_v(1);  // apio-lint: allow(unchecked-outcome)
  int x = 0;  // apio-lint: allow(lock-rank)
}
}  // namespace apio
)";
  fx.write("src/w.cpp", source);

  const Analysis result = fx.run();
  EXPECT_TRUE(result.findings.empty()) << "waived finding must not surface";
  ASSERT_EQ(result.stale_waivers.size(), 1u);
  EXPECT_EQ(result.stale_waivers[0].file, "src/w.cpp");
  EXPECT_EQ(result.stale_waivers[0].line, line_of(source, "int x = 0;"));
  EXPECT_EQ(result.stale_waivers[0].rule, kRuleLockRank);
  EXPECT_FALSE(result.clean()) << "stale waivers fail the run";

  // Exact report text for the stale waiver and the summary line.
  std::ostringstream os;
  print_text(result, os);
  const std::string expected =
      "src/w.cpp:" + std::to_string(result.stale_waivers[0].line) +
      ": [stale-waiver] allow(lock-rank) matches no lock-rank finding\n"
      "apio_analyze: 0 finding(s), 1 stale waiver(s)\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(AnalysisBaselineTest, BaselinedFindingIsQuietAndRoundTrips) {
  AnalyzerFixture fx;
  fx.write("src/b.cpp", R"(namespace apio {
class B {
 public:
  bool test();
  void poll();
};
void B::poll() {
  test();
}
}  // namespace apio
)");
  const Analysis unfiltered = fx.run();
  ASSERT_EQ(unfiltered.findings.size(), 1u);
  const std::string key = unfiltered.findings[0].key;
  EXPECT_EQ(key, "unchecked-outcome|B::poll|test");

  // Write the baseline the CLI would produce, read it back, re-run.
  const fs::path bl = fx.root() / "baseline.json";
  {
    std::ofstream out(bl);
    out << baseline_json(unfiltered);
  }
  std::set<std::string> keys;
  std::string err;
  ASSERT_TRUE(read_baseline(bl, keys, err)) << err;
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
  AnalyzerFixture fx;
  const fs::path bl = fx.root() / "bad.json";
  {
    std::ofstream out(bl);
    out << "{\"version\": 1}\n";
  }
  std::set<std::string> keys;
  std::string err;
  EXPECT_FALSE(read_baseline(bl, keys, err));
  EXPECT_NE(err.find("findings"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report formats

TEST(AnalysisReportTest, TextAndJsonCarryFileLineRuleAndWitness) {
  AnalyzerFixture fx;
  const std::string source = R"(namespace apio {
class R {
 public:
  unsigned long write_v(int extents);
  void go();
};
void R::go() {
  write_v(1);
}
}  // namespace apio
)";
  fx.write("src/r.cpp", source);
  const Analysis result = fx.run();
  ASSERT_EQ(result.findings.size(), 1u);
  const int line = line_of(source, "write_v(1);");

  std::ostringstream os;
  print_text(result, os);
  const std::string expected =
      "src/r.cpp:" + std::to_string(line) +
      ": [unchecked-outcome] result of write_v() is discarded; check it, "
      "or waive with a comment\n"
      "    #0 R::go (src/r.cpp:" + std::to_string(line) +
      ") discards result of write_v\n"
      "apio_analyze: 1 finding(s), 0 stale waiver(s)\n";
  EXPECT_EQ(os.str(), expected);

  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"tool\": \"apio_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"unchecked-outcome\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/r.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": " + std::to_string(line)), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"unchecked-outcome|R::go|write_v\""),
            std::string::npos);
  EXPECT_NE(json.find("\"note\": \"discards result of write_v\""),
            std::string::npos);
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
  EXPECT_TRUE(waived("x();  // apio-lint: allow(unchecked-outcome)",
                     "unchecked-outcome"));
  EXPECT_FALSE(waived("x();  // apio-lint: allow(unchecked-outcome)",
                      "lock-rank"));
  EXPECT_FALSE(waived("x();", "lock-rank"));
}

TEST(AnalysisSourceModelTest, LambdaBodiesDoNotInheritEnclosingHolds) {
  // A continuation registered under a lock runs later, outside it: the
  // sleep inside the lambda is not "while holding" the mutex, and the
  // lambda's lock acquisitions are not nested under the enclosing one.
  AnalyzerFixture fx;
  fx.write("src/lam.h", R"(#include "common/debug/lock_rank.h"
namespace apio {
class Lam {
 public:
  void arm();
 private:
  debug::RankedMutex<debug::LockRank::kInner> inner_;
  debug::RankedMutex<debug::LockRank::kOuter> outer_;
};
inline void Lam::arm() {
  std::lock_guard lock(inner_);
  auto fn = [this] {
    std::lock_guard inner(outer_);
  };
  fn();
}
}  // namespace apio
)");
  const Analysis result = fx.run();
  EXPECT_TRUE(result.clean()) << "holds must not leak into lambda bodies";
}

// ---------------------------------------------------------------------------
// The real repository

TEST(AnalysisRepoTest, WholeRepoIsCleanModuloCheckedInBaseline) {
  const fs::path repo = APIO_SOURCE_DIR;
  std::set<std::string> baseline;
  std::string err;
  const fs::path bl = repo / "tools/analysis/baseline.json";
  ASSERT_TRUE(read_baseline(bl, baseline, err)) << err;

  CodeModel model = build_model(repo, {"src", "tools"});
  EXPECT_FALSE(model.ranks.value.empty()) << "lock_rank.h must parse";
  EXPECT_GT(model.functions.size(), 100u) << "extraction looks too sparse";

  const Analysis result = analyze(model, baseline);
  std::ostringstream os;
  print_text(result, os);
  EXPECT_TRUE(result.clean()) << os.str();
}

}  // namespace
}  // namespace apio::analysis
