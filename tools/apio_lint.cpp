// apio_lint: repo-specific concurrency-hygiene lint.
//
// A deliberately dependency-free (no libclang) token/line-based checker
// for rules the compiler cannot enforce but the concurrency model
// requires (DESIGN.md, "Concurrency model"):
//
//   raw-mutex     src/tasking, src/pmpi, src/vol and src/sched must
//                 synchronise through debug::RankedMutex so the lock-rank
//                 order is checked at runtime.  Raw std::mutex /
//                 std::condition_variable (whose wait() forces a raw
//                 std::mutex) are rejected; std::condition_variable_any
//                 pairs with RankedMutex and is fine.
//   no-detach     detached threads outlive scope-based reasoning and
//                 every sanitizer's happens-before graph; forbidden
//                 everywhere in src/ and tests/.
//   no-test-sleep wall-clock sleeps make tests flaky and slow; tests
//                 must synchronise on events.  Sleeps that *simulate
//                 compute phases* (the paper's methodology) are opted
//                 in per line with "apio-lint: allow(no-test-sleep)".
//   pragma-once   every header under src/ uses #pragma once (the
//                 include-guard style of this repo).
//   faulty-backend  storage::FaultyBackend is a test-only fault
//                 injector; wiring it into library code under src/
//                 (outside its own definition) would ship injected
//                 failures.  Production resilience goes through
//                 storage::ResilientBackend / AsyncOptions::retry.
//   cached-backend  storage::CachedBackend must be constructed through
//                 BackendStack::cached(), never directly: the stack
//                 builder is what enforces the decorator-order
//                 invariant (cache outermost, so hits bypass QoS
//                 admission and drains pass through it).  A direct
//                 make_shared<CachedBackend>(...) can silently nest
//                 the cache under qos/resilient and spend admission
//                 slots on node-local staging copies.
//   io-vector     dataset transfer paths in src/h5 must aggregate
//                 segments through h5::IoVector (one vectored
//                 write_v/read_v per transfer) instead of issuing
//                 per-segment backend.write()/read() calls — the
//                 request-per-fragment pattern is exactly what the
//                 aggregation layer exists to eliminate.  The
//                 deliberate scalar fallbacks (A/B comparison paths)
//                 carry per-line waivers.
//   trace-phase   causal-trace spans in src/ must be attributed to a
//                 named phase from the obs::trace::Phase enum: every
//                 ScopedPhase / record_phase line must spell a
//                 Phase::k... constant on the same line (references
//                 to an already-open ScopedPhase are exempt), and raw
//                 TraceContext{...} construction (forging a context
//                 instead of propagating one) is flagged.  The
//                 collective writer's deliberate cross-rank context
//                 reconstruction carries per-line waivers.
//
// Any rule can be waived for one line with a trailing comment:
//   // apio-lint: allow(<rule>)
//
// File loading, comment/string stripping, token matching and the
// waiver syntax live in tools/analysis/source_model.{h,cpp}, shared
// with apio_analyze so the two tools cannot drift on what counts as
// code or how a waiver is spelled.
//
// Usage: apio_lint <repo-root>
// Exit code 0 when clean, 1 when violations were found (wired into
// CTest as the `lint` label, so tier-1 fails on violations).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/source_model.h"

namespace fs = std::filesystem;

using apio::analysis::contains;
using apio::analysis::has_token;
using apio::analysis::waived;

namespace {

struct Violation {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

std::vector<Violation> g_violations;

void report(const std::string& file, std::size_t line, std::string rule,
            std::string message) {
  g_violations.push_back({file, line, std::move(rule), std::move(message)});
}

bool path_under(const fs::path& file, const fs::path& dir) {
  const std::string f = file.generic_string();
  const std::string d = dir.generic_string();
  return f.size() > d.size() && f.compare(0, d.size(), d) == 0 &&
         f[d.size()] == '/';
}

void lint_file(const fs::path& root, const fs::path& file) {
  const bool in_ranked_scope = path_under(file, root / "src" / "tasking") ||
                               path_under(file, root / "src" / "pmpi") ||
                               path_under(file, root / "src" / "vol") ||
                               path_under(file, root / "src" / "sched");
  const bool in_tests = path_under(file, root / "tests");
  const bool in_src = path_under(file, root / "src");
  const bool is_faulty_backend_impl =
      file.filename() == "faulty_backend.h" ||
      file.filename() == "faulty_backend.cpp";
  const bool is_cached_backend_impl =
      file.filename() == "cached_backend.h" ||
      file.filename() == "cached_backend.cpp" ||
      file.filename() == "backend_stack.cpp";
  const bool in_h5 = path_under(file, root / "src" / "h5");
  const bool is_trace_impl = file.filename() == "trace_context.h" ||
                             file.filename() == "trace_context.cpp";
  const bool is_io_vector_impl = file.filename() == "io_vector.h" ||
                                 file.filename() == "io_vector.cpp";
  const bool is_header = file.extension() == ".h";

  apio::analysis::SourceFile sf;
  if (!apio::analysis::load_source(root, file, sf)) {
    report(file.generic_string(), 0, "io", "cannot open file");
    return;
  }

  bool saw_pragma_once = false;
  for (std::size_t li = 0; li < sf.raw.size(); ++li) {
    const std::size_t lineno = li + 1;
    const std::string& raw = sf.raw[li];
    if (contains(raw, "#pragma once")) saw_pragma_once = true;
    const std::string& code = sf.code[li];
    if (code.empty()) continue;

    if (in_ranked_scope) {
      for (const char* bad : {"std::mutex", "std::recursive_mutex",
                              "std::timed_mutex", "std::shared_mutex",
                              "std::recursive_timed_mutex"}) {
        if (has_token(code, bad) && !waived(raw, "raw-mutex")) {
          report(sf.path, lineno, "raw-mutex",
                 std::string(bad) +
                     " is forbidden here; use apio::debug::RankedMutex so "
                     "the lock-rank order is enforced");
        }
      }
      if (has_token(code, "std::condition_variable") &&
          !waived(raw, "raw-mutex")) {
        report(sf.path, lineno, "raw-mutex",
               "std::condition_variable waits on a raw std::mutex; use "
               "std::condition_variable_any with a RankedMutex");
      }
    }

    if (in_src && !is_faulty_backend_impl && has_token(code, "FaultyBackend") &&
        !waived(raw, "faulty-backend")) {
      report(sf.path, lineno, "faulty-backend",
             "FaultyBackend is a test-only fault injector and must not be "
             "wired into library code; use storage::ResilientBackend or "
             "AsyncOptions::retry for production resilience");
    }

    if (!is_cached_backend_impl &&
        (contains(code, "make_shared<CachedBackend") ||
         contains(code, "new CachedBackend") ||
         contains(code, "new storage::CachedBackend")) &&
        !waived(raw, "cached-backend")) {
      report(sf.path, lineno, "cached-backend",
             "construct the burst-buffer cache through "
             "storage::BackendStack::cached(), not directly — the stack "
             "builder enforces the decorator-order invariant (cache "
             "outermost); annotate a deliberate exception with apio-lint: "
             "allow(cached-backend)");
    }

    if (in_h5 && !is_io_vector_impl &&
        (contains(code, "backend.write(") || contains(code, "backend.read(")) &&
        !waived(raw, "io-vector")) {
      report(sf.path, lineno, "io-vector",
             "dataset transfers must aggregate through h5::IoVector "
             "(write_v/read_v), not issue per-segment backend calls; "
             "annotate a deliberate scalar fallback with apio-lint: "
             "allow(io-vector)");
    }

    if (in_src && !is_trace_impl) {
      // A ScopedPhase reference or forward declaration opens no span.
      const bool opens_phase = has_token(code, "ScopedPhase") &&
                               !contains(code, "ScopedPhase&") &&
                               !contains(code, "class ScopedPhase");
      if ((opens_phase || has_token(code, "record_phase")) &&
          !contains(code, "Phase::k") && !waived(raw, "trace-phase")) {
        report(sf.path, lineno, "trace-phase",
               "trace spans must name a phase from the obs::trace::Phase "
               "enum on the same line (Phase::k...), so every span is "
               "attributable in the critical-path report");
      }
      if ((contains(code, "TraceContext{") || contains(code, "TraceContext(")) &&
          !waived(raw, "trace-phase")) {
        report(sf.path, lineno, "trace-phase",
               "constructing a raw TraceContext forges causal identity; "
               "propagate the submitter's context (current_trace / "
               "ScopedTraceContext) or annotate a deliberate cross-rank "
               "reconstruction with apio-lint: allow(trace-phase)");
      }
    }

    if (contains(code, ".detach()") && !waived(raw, "no-detach")) {
      report(sf.path, lineno, "no-detach",
             "detached threads escape shutdown and sanitizer analysis; "
             "join every thread");
    }

    if (in_tests) {
      for (const char* bad : {"sleep_for", "sleep_until", "usleep"}) {
        if (has_token(code, bad) && !waived(raw, "no-test-sleep")) {
          report(sf.path, lineno, "no-test-sleep",
                 "wall-clock sleeps make tests flaky; synchronise on "
                 "events, or annotate a compute-phase simulation with "
                 "apio-lint: allow(no-test-sleep)");
        }
      }
    }
  }

  if (is_header && !saw_pragma_once) {
    report(sf.path, 1, "pragma-once", "headers must use #pragma once");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: apio_lint <repo-root>\n");
    return 2;
  }
  std::error_code ec;
  const fs::path root = fs::canonical(argv[1], ec);
  if (ec) {
    std::fprintf(stderr, "apio_lint: cannot open %s: %s\n", argv[1],
                 ec.message().c_str());
    return 2;
  }
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "apio_lint: %s has no src/ directory\n",
                 root.generic_string().c_str());
    return 2;
  }

  for (const auto& file : apio::analysis::collect_sources(
           root, {"src", "tests", "examples", "bench"})) {
    lint_file(root, file);
  }

  for (const auto& v : g_violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!g_violations.empty()) {
    std::fprintf(stderr, "apio_lint: %zu violation(s)\n", g_violations.size());
    return 1;
  }
  std::printf("apio_lint: clean\n");
  return 0;
}
