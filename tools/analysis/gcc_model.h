// apio_analyze's model of the code, read from GCC's own dumps.
//
// Every analyzed translation unit is compiled a second time at -O0 with
// -fdump-tree-optimized-lineno-asmname and -fdump-lang-class
// (apio_gcc_dumps in tools/CMakeLists.txt).  The GIMPLE dump gives each
// emitted function's body with a file:line:col on every statement and
// the mangled name of every symbol it names; the class dump gives every
// class's vtable and base layout.  From them:
//
//   * direct calls: each call statement, by mangled callee;
//   * virtual calls: `OBJ_TYPE_REF((class)recv->slot)` reaches that slot
//     of the class's vtable and of every class laid out around it, i.e.
//     every override;
//   * function pointers: a function whose address is taken counts as
//     called from where the address is taken (a lambda's static
//     invoker, a std::function handler);
//   * held ranks: a lock_guard / unique_lock / scoped_lock over
//     RankedMutex<R> holds R from its constructor or lock() to its
//     unlock(), or to its last destructor before it locks again, in
//     source order, so an early return does not end the hold;
//   * blocking primitives (std sleeps, waits and joins) and the thread
//     context assertions are calls at sites in repo files.
//
// Functions with the same mangled name in several translation units
// (inline functions, template instances) are one function; internal
// linkage ones stay per unit.  Virtual calls resolve only at repo
// sites: library internals (shared_ptr control blocks, thread states)
// dispatch to every instance of the library's own templates.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis/source_model.h"

namespace apio::analysis {

/// A position in a repo file, relative to the repo root.
struct Site {
  std::string file;
  int line = 0;
};

/// A call (or an address taken) inside a function body.
struct Call : Site {
  std::size_t callee = 0;  ///< index into CodeModel::functions
  std::vector<int> held;   ///< lock ranks held at the call
};

struct Acquire : Site {
  int rank = 0;
  std::vector<int> held_before;  ///< other ranks held when it runs
};

struct Block : Site {
  std::string primitive;  ///< "sleep_for", "wait", "join", ...
};

struct Function {
  std::string name;  ///< demangled, without parameters or "apio::"
  std::vector<Call> calls;
  std::vector<Acquire> acquires;
  std::vector<Block> blocks;
  std::vector<Site> stream_asserts;  ///< APIO_ASSERT_ON_STREAM sites
  std::vector<Site> rank_asserts;    ///< APIO_ASSERT_ON_RANK sites

  /// Last component of the name ("run_attempt").
  std::string short_name() const;
};

struct CodeModel {
  std::vector<Function> functions;
  std::map<int, std::string> rank_names;  ///< 10 -> "kVolConnector"
  std::vector<SourceFile> files;  ///< repo files holding a site

  const SourceFile* file_of(const std::string& rel) const;
  /// "kVolConnector", or the number for a rank no dump named.
  std::string rank_name(int rank) const;
  /// "kVolConnector (rank 10)".
  std::string rank_label(int rank) const;
};

/// Reads every *.optimized and *.class dump under `dumps`.  Positions
/// in files under `root` are repo sites, reported relative to it.
CodeModel load_model(const std::filesystem::path& root,
                     const std::filesystem::path& dumps);

}  // namespace apio::analysis
