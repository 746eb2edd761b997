// Heuristic function/call-graph extraction over the shared source
// model, for apio_analyze's flow passes.
//
// The extractor walks the token stream of every file tracking a scope
// stack (namespace / class / enum / function / block).  It records:
//
//   * class definitions, their base classes, and namespace-scope type
//     aliases (`using FilePtr = std::shared_ptr<File>` maps FilePtr to
//     File), giving the resolver a coarse type environment;
//   * function definitions, with the enclosing class (or the class
//     named in an out-of-line `Cls::member` definition);
//   * member/local/parameter variables whose declared type names a
//     known class (directly, through a smart pointer, or through an
//     alias) — so `inner_->write()` resolves into the Backend
//     hierarchy while `writes_.size()` resolves to nothing;
//   * every call site inside a function body, with the receiver token
//     (`x` in `x->f()`), the qualifier (`detail` in `detail::f()`),
//     whether the result is discarded as a whole statement, and the
//     set of lock ranks held at the call;
//   * RankedMutex<LockRank::kX> member declarations (including via
//     class-local `using` aliases) and the lock_guard/unique_lock/
//     scoped_lock acquisition sites against them, scoped to the
//     enclosing block so "while-holding" edges are per call site.
//     Holds do not leak into lambda bodies: a continuation built under
//     a lock runs later, outside it;
//   * condition-variable and std::atomic member names, so
//     `cv.wait(lock)` and `flag.wait(old)` are primitive blocking sites
//     rather than calls to Request::wait;
//   * APIO_ASSERT_ON_STREAM / APIO_ASSERT_ON_RANK sites, which seed
//     the thread-context pass.
//
// Calls resolve by name plus the coarse type environment: a receiver
// with a known class type restricts candidates to that class and its
// (transitive) derived classes — virtual dispatch through a base
// pointer sees every override; a receiver whose type is unknown (std
// containers, spans, locals of library types) resolves to nothing; a
// receiver-less call inside a member function prefers a same-class
// member (`run(...)` in ResilientBackend::write is its private run,
// not every run() in the repo).  Remaining imprecision is documented
// in DESIGN.md "Static analysis" and is waivable per line.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/source_model.h"

namespace apio::analysis {

/// The global lock order parsed from src/common/debug/lock_rank.h:
/// enumerator name ("kVolConnector") to its declared integer rank.
struct LockRankTable {
  std::map<std::string, int> value;

  /// Parses `enum class LockRank` enumerators from the header's
  /// stripped code lines.  Returns false when none were found.
  bool load(const SourceFile& header);

  int rank_of(const std::string& name) const {
    auto it = value.find(name);
    return it == value.end() ? -1 : it->second;
  }
};

/// One RankedMutex member: `cls` is the enclosing class ("" at
/// namespace scope), `rank` the LockRank enumerator name.
struct MutexVar {
  std::string cls;
  std::string name;
  std::string rank;
};

/// A lock acquisition inside a function, with the ranks already held
/// when it runs (for direct-inversion checks).
struct AcquireSite {
  std::string rank;
  int line = 0;
  std::vector<std::string> held_before;
};

/// A call site inside a function body.
struct CallSite {
  std::string name;           ///< simple callee name
  std::string receiver;       ///< `x` in x.f() / x->f(); "" when none
  std::string receiver_type;  ///< class of the receiver when a local/param
                              ///< declaration pinned it; "" = unknown here
                              ///< (member lookup happens at resolve time)
  std::string qualifier;      ///< `ns` in ns::f(); "" when none
  int line = 0;
  std::vector<std::string> held;  ///< ranks held at this site
  bool stmt_discard = false;      ///< the whole statement is just this call
};

/// One extracted function definition.
struct Function {
  std::string cls;        ///< enclosing or qualifying class; "" if free
  std::string name;       ///< simple name
  std::string qualified;  ///< cls::name or name
  std::string file;       ///< repo-relative path
  int line = 0;
  std::vector<AcquireSite> acquires;
  std::vector<CallSite> calls;
  bool asserts_stream = false;  ///< contains APIO_ASSERT_ON_STREAM
  bool asserts_rank = false;    ///< contains APIO_ASSERT_ON_RANK
  int assert_stream_line = 0;
  int assert_rank_line = 0;
};

/// Whole-repo model consumed by the passes.
struct CodeModel {
  std::vector<SourceFile> files;                  ///< indexed by file id
  std::map<std::string, std::size_t> file_index;  ///< rel path -> id
  LockRankTable ranks;
  std::vector<Function> functions;
  std::multimap<std::string, std::size_t> by_name;  ///< simple name -> idx
  std::vector<MutexVar> mutexes;
  std::set<std::string> cv_names;  ///< condition-variable and atomic members

  // Coarse type environment.
  std::set<std::string> classes;                   ///< defined class names
  std::map<std::string, std::set<std::string>> bases;  ///< class -> bases
  std::map<std::string, std::vector<std::string>> alias_raw;  ///< using X = rhs
  std::map<std::string, std::string> type_aliases;  ///< alias -> class
  /// (class, member variable) -> class of the member's declared type.
  std::map<std::pair<std::string, std::string>, std::string> member_types;

  const SourceFile* file_of(const std::string& rel) const {
    auto it = file_index.find(rel);
    return it == file_index.end() ? nullptr : &files[it->second];
  }

  /// Maps a type name through the alias table to a known class ("" when
  /// it names neither a class nor an alias of one).
  std::string as_class(const std::string& type_name) const;

  /// Declared class of member `var` of `cls`; falls back to a globally
  /// unique member of that name in any class ("" when unknown).
  std::string member_type_of(const std::string& cls,
                             const std::string& var) const;

  /// True when `cls` is `base` or transitively derives from it.
  bool is_or_derived(const std::string& cls, const std::string& base) const;

  /// Resolves a call site to candidate function indices (see header
  /// comment for the refinement rules).  `caller_cls` is the class of
  /// the function containing the call.
  std::vector<std::size_t> resolve(const CallSite& call,
                                   const std::string& caller_cls) const;
};

/// Builds the model over every .h/.cpp under root/<dir> for `dirs`.
/// Extraction runs in two phases so declarations (classes, mutexes,
/// aliases, member types) harvested anywhere are visible to call sites
/// everywhere.  The lock-rank table is read from
/// root/src/common/debug/lock_rank.h when present (passes degrade
/// gracefully without it).
CodeModel build_model(const std::filesystem::path& root,
                      const std::vector<std::string>& dirs);

/// Extracts functions/mutexes/calls from one file into `model`
/// (exposed for focused unit tests; build_model's two-phase driver is
/// the normal entry point).
void extract_file(const SourceFile& file, CodeModel& model);

}  // namespace apio::analysis
