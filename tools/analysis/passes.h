// apio_analyze's flow passes over the CodeModel read from GCC's dumps,
// plus the reporting/waiver/baseline machinery shared by the CLI and
// the tests.
//
//   lock-rank       a call path may acquire LockRanks out of the global
//                   order in src/common/debug/lock_rank.h (direct
//                   re-acquisition/inversion at an acquire site, or
//                   transitively through callees while a rank is held)
//   thread-context  a blocking primitive (sleep, join, condition-variable
//                   or atomic wait) or a rank-thread-only function
//                   (APIO_ASSERT_ON_RANK) is reachable from a
//                   stream-context root (APIO_ASSERT_ON_STREAM)
//
// A discarded I/O outcome is the compiler's to catch: the outcome APIs
// are [[nodiscard]] and every build has -Werror=unused-result.
//
// Findings carry a call-chain witness and a stable key (no line
// numbers) so baselines survive unrelated edits.  A finding is
// suppressed by `// apio-lint: allow(<rule>)` on the reported line;
// waivers that match no finding are themselves reported (stale) so
// suppressions cannot outlive the code they excused.
#pragma once

#include <iosfwd>
#include <set>

#include "analysis/gcc_model.h"

namespace apio::analysis {

inline constexpr const char* kRuleLockRank = "lock-rank";
inline constexpr const char* kRuleThreadContext = "thread-context";

/// One hop of a finding's call-chain witness.
struct WitnessStep {
  std::string function;  ///< qualified name
  std::string file;
  int line = 0;
  std::string note;  ///< e.g. "calls run_attempt", "acquires kVolConnector"
};

struct Finding {
  std::string rule;
  std::string file;  ///< repo-relative path of the reported line
  int line = 0;
  std::string function;  ///< qualified name containing the reported line
  std::string message;
  std::string key;  ///< stable identity for baselines (no line numbers)
  std::vector<WitnessStep> witness;
};

/// A waiver comment naming one of our rules that suppressed nothing.
struct StaleWaiver {
  std::string file;
  int line = 0;
  std::string rule;
};

struct Analysis {
  std::vector<Finding> findings;   ///< active: fail the run
  std::vector<Finding> baselined;  ///< matched --baseline, reported quietly
  std::vector<StaleWaiver> stale_waivers;  ///< also fail the run

  bool clean() const { return findings.empty() && stale_waivers.empty(); }
};

/// Runs both passes.  `baseline` holds finding keys frozen by
/// --baseline (empty set = everything is active).
Analysis analyze(const CodeModel& model, const std::set<std::string>& baseline);

/// Human-readable report (one line per finding + indented witness).
void print_text(const Analysis& analysis, std::ostream& os);

/// SARIF-lite JSON: {tool, version, findings: [...], baselined, stale_waivers}.
std::string to_json(const Analysis& analysis);

/// JSON for --write-baseline: the sorted keys of every current finding
/// (active and already-baselined).
std::string baseline_json(const Analysis& analysis);

/// Parses a baseline file produced by baseline_json().  Returns false
/// (with *err set) when the file exists but cannot be parsed; a missing
/// file is the caller's concern.
bool read_baseline(const std::filesystem::path& path,
                   std::set<std::string>& keys, std::string& err);

}  // namespace apio::analysis
