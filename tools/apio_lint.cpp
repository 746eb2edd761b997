// apio_lint: repo-specific concurrency-hygiene lint.
//
// A deliberately dependency-free (no libclang) token/line-based checker
// for rules the compiler cannot enforce but the concurrency model
// requires (DESIGN.md, "Concurrency model"):
//
//   raw-mutex     src/pmpi, src/vol and src/sched must synchronise
//                 through debug::RankedMutex so the lock-rank order is
//                 checked at runtime.  Raw std::mutex /
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
//                 storage::ResilientBackend.
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
//                 aggregation layer exists to eliminate.  The scalar
//                 A/B mode (FileProps::vectored_io = false) issues the
//                 one selection walk's segments one call each; its
//                 write and read lines carry the only waivers.
//   scalar-transfer  each direction has one transfer path per backend:
//                 write_v/read_v.  storage::Backend gives the scalar
//                 write()/read() their one body (a one-extent batch);
//                 they cannot be final because bench/e2e's probe
//                 overrides them, so this rule rejects any other
//                 read(std::uint64_t ..., byte span) or
//                 write(std::uint64_t ..., byte span) declaration or
//                 definition under src/.  src/storage/backend.h is
//                 exempt; bench/ and tests/ are out of scope.
//   interval-set  storage::ByteRanges is the one byte-range set: the
//                 posix sieve's written bytes and the cache's staged,
//                 dirty and rewritten bytes all use it, and one seeded
//                 test checks it against a bitmap.  A
//                 std::map<std::uint64_t, std::uint64_t> declaration
//                 (spacing ignored) under src/ outside
//                 src/storage/byte_ranges.{h,cpp} is rejected.  This
//                 rule takes no waiver.
//   trace-phase   causal-trace spans in src/ must be attributed to a
//                 named phase from the obs::trace::Phase enum: every
//                 ScopedPhase / record_phase line must spell a
//                 Phase::k... constant on the same line (references
//                 to an already-open ScopedPhase are exempt), and raw
//                 TraceContext{...} construction (forging a context
//                 instead of propagating one) is flagged.  The
//                 collective writer's deliberate cross-rank context
//                 reconstruction carries per-line waivers.
//   discard-reason  an I/O outcome (write_v/read_v byte counts, EventSet
//                 errors/num_errors/error_messages, Request::test) is
//                 [[nodiscard]] and every build has
//                 -Werror=unused-result, so dropping one takes a (void)
//                 cast; that cast needs its reason in a comment on the
//                 line or the line above.  GCC 12 drops [[nodiscard]]
//                 on calls through a virtual, so under src/ a statement
//                 that is only a recv->write_v(...) or recv.read_v(...)
//                 call is rejected here too (tests have helpers of those
//                 names).  A discard inside EXPECT_THROW / ASSERT_THROW
//                 states its reason already.
//
// Any other rule can be waived for one line with a trailing comment:
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
#include <string_view>
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

/// True when `code` (one stripped line) discards an I/O outcome: a
/// (void) cast of a must-check call, or (with `bare`) a statement that
/// is nothing but a receiver's write_v/read_v call.
bool discards_outcome(const std::string& code, bool bare) {
  const std::size_t start = code.find_first_not_of(" \t");
  if (start == std::string::npos) return false;
  const std::size_t cast = code.find("(void)");
  if (cast != std::string::npos) {
    for (const char* name : {"write_v", "read_v", "errors", "num_errors",
                             "error_messages", "test"}) {
      const std::string tail = code.substr(cast);
      if (has_token(tail, name) && contains(tail, std::string(name) + "(")) return true;
    }
  }
  for (const char* name : {"write_v(", "read_v("}) {
    const std::size_t at = bare ? code.find(name, start) : std::string::npos;
    if (at == std::string::npos) continue;
    // The receiver is a chain like `inner_->`, `leaf.` or `file()->`.
    std::string recv = code.substr(start, at - start);
    for (std::size_t p; (p = recv.find("()")) != std::string::npos;) recv.erase(p, 2);
    const bool chain = recv.find_first_not_of(
                           "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                           "0123456789_:.->[]*") == std::string::npos;
    if (chain && (recv.empty() || recv.ends_with("->") || recv.ends_with("."))) {
      return true;
    }
  }
  return false;
}

bool path_under(const fs::path& file, const fs::path& dir) {
  const std::string f = file.generic_string();
  const std::string d = dir.generic_string();
  return f.size() > d.size() && f.compare(0, d.size(), d) == 0 &&
         f[d.size()] == '/';
}

void lint_file(const fs::path& root, const fs::path& file) {
  const bool in_ranked_scope = path_under(file, root / "src" / "pmpi") ||
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
  const bool is_backend_base =
      file.generic_string() == (root / "src" / "storage" / "backend.h").generic_string();
  const bool is_byte_ranges_impl =
      file.parent_path() == root / "src" / "storage" &&
      (file.filename() == "byte_ranges.h" || file.filename() == "byte_ranges.cpp");
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
             "wired into library code; use storage::ResilientBackend for "
             "production resilience");
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
             "only the scalar A/B mode's per-segment call carries "
             "apio-lint: allow(io-vector)");
    }

    if (in_src && !is_backend_base &&
        (has_token(code, "read(std::uint64_t") ||
         has_token(code, "write(std::uint64_t")) &&
        !waived(raw, "scalar-transfer")) {
      // The byte span may sit on the next line of a wrapped signature.
      const std::string next = li + 1 < sf.code.size() ? sf.code[li + 1] : "";
      const std::string sig = code + " " + next;
      if (contains(sig, "std::span<") && contains(sig, "std::byte>")) {
        report(sf.path, lineno, "scalar-transfer",
               "a backend's scalar read()/write() are storage::Backend's "
               "one-extent batches; implement the transfer once in "
               "read_v()/write_v() instead of overriding them");
      }
    }

    if (in_src && !is_byte_ranges_impl) {
      std::string packed = code;
      std::erase_if(packed, [](char c) { return c == ' ' || c == '\t'; });
      if (contains(packed, "std::map<std::uint64_t,std::uint64_t>")) {
        report(sf.path, lineno, "interval-set",
               "byte-range bookkeeping goes through storage::ByteRanges "
               "(src/storage/byte_ranges.h), the one interval set checked "
               "against a bitmap; do not grow a second one");
      }
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

    if (discards_outcome(code, in_src) && !contains(code, "_THROW(")) {
      // The statement must start on this line, and a comment on it or
      // alone on the line above gives the reason.
      const std::string prev = li > 0 ? sf.code[li - 1] : "";
      const std::size_t last = prev.find_last_not_of(" \t");
      const bool starts = last == std::string::npos ||
                          std::string_view(";{}:").find(prev[last]) != std::string_view::npos;
      auto commented = [&](std::size_t i) {
        return contains(sf.raw[i], "//") && !contains(sf.code[i], "//");
      };
      const bool reason = commented(li) ||
                          (li > 0 && last == std::string::npos && commented(li - 1));
      if (starts && !reason) {
        report(sf.path, lineno, "discard-reason",
               "an I/O outcome is dropped without a reason: check the "
               "result, or cast it to void with a comment saying why");
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
