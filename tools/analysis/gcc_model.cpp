#include "analysis/gcc_model.h"

#include <cxxabi.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

namespace fs = std::filesystem;

namespace apio::analysis {
namespace {

std::string read_file(const fs::path& p) {
  std::string text(fs::file_size(p), '\0');
  std::ifstream(p, std::ios::binary).read(text.data(), static_cast<std::streamsize>(text.size()));
  return text;
}

/// Calls fn on each part of `text` between occurrences of `sep`.
template <typename Fn>
void for_parts(std::string_view text, std::string_view sep, Fn&& fn) {
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t end = std::min(text.find(sep, pos), text.size());
    fn(text.substr(pos, end - pos));
    pos = end + sep.size();
  }
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

std::string strip_templates(std::string_view name) {
  std::string out;
  int depth = 0;
  for (const char c : name) {
    if (c == '<') ++depth;
    else if (c == '>') depth = std::max(depth - 1, 0);
    else if (depth == 0) out += c;
  }
  return out;
}

std::string last_component(const std::string& plain) {
  const std::size_t p = plain.rfind("::");
  return p == std::string::npos ? plain : plain.substr(p + 2);
}

/// A demangled name cut at its parameter list.
std::string without_params(const std::string& d) {
  int depth = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] == '<') ++depth;
    else if (d[i] == '>') --depth;
    else if (d[i] == '(' && depth == 0) return d.substr(0, i);
  }
  return d;
}

std::string display(std::string name) {
  return name.rfind("apio::", 0) == 0 ? name.substr(6) : name;
}

bool is_blocking(const std::string& plain) {
  static const std::set<std::string> kNamed = {
      "std::this_thread::sleep_for", "std::this_thread::sleep_until",
      "std::thread::join", "usleep", "nanosleep"};
  if (kNamed.count(plain) > 0) return true;
  return plain.rfind("std::", 0) == 0 &&
         last_component(plain).find("wait") != std::string::npos;
}

/// Source order inside one function: line, column, then dump order.
using Pos = std::tuple<int, int, int>;

struct LockEvent {
  enum Kind { kAcquire, kUnlock, kRelease } kind;
  std::string object;
  int rank;
  Pos pos;
};

struct Hold {
  Pos start, end;
  int rank;
};

/// One hold per lock object from its acquisition to its unlock(), or
/// to the last destructor call before it is acquired again.
std::vector<Hold> holds_of(std::vector<LockEvent> events) {
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return std::tie(a.object, a.pos) < std::tie(b.object, b.pos);
  });
  const Pos never{1 << 30, 0, 0};
  std::vector<Hold> out;
  for (std::size_t i = 0, j = 0; i < events.size(); i = j) {
    bool open = false;
    Hold cur{};
    std::optional<Pos> end;
    for (j = i; j < events.size() && events[j].object == events[i].object; ++j) {
      const LockEvent& e = events[j];
      if (e.kind == LockEvent::kAcquire && !(open && !end)) {
        if (open) out.push_back({cur.start, *end, cur.rank});
        cur = {e.pos, never, e.rank}, open = true, end.reset();
      } else if (open && e.kind == LockEvent::kUnlock) {
        out.push_back({cur.start, e.pos, cur.rank}), open = false;
      } else if (open && e.kind == LockEvent::kRelease) {
        end = e.pos;
      }
    }
    if (open) out.push_back({cur.start, end.value_or(never), cur.rank});
  }
  return out;
}

std::vector<int> held_at(const std::vector<Hold>& holds, const Pos& p) {
  std::vector<int> ranks;
  for (const Hold& h : holds) {
    if (h.start < p && p <= h.end) ranks.push_back(h.rank);
  }
  return ranks;
}

class Loader {
 public:
  explicit Loader(const fs::path& root) : prefix_(root.generic_string() + "/") {}

  void load_classes(const std::string& text);
  void load_gimple(const std::string& tu, const std::string& text);
  CodeModel finish(const fs::path& root);

 private:
  struct Pending {  // an edge resolved once every unit is loaded
    std::size_t fn;
    std::string key;  ///< a direct call or an address taken: the callee
    std::string cls;  ///< a virtual call: the receiver's class and slot
    int slot = 0;
    Call call;
  };
  struct Body {  // the function being read
    std::size_t fn;
    std::vector<LockEvent> locks;
    std::vector<std::pair<Pos, Pending>> calls;
    std::vector<std::pair<Pos, Acquire>> acquires;
    std::optional<Site> repo_line;  ///< the last statement in a repo file
  };

  /// A function's identity: its mangled name, with the complete-object
  /// constructor or destructor (C1/D1) folded into the base-object one
  /// (C2/D2) whose body GCC emits, and with the unit prepended for
  /// internal linkage.
  static std::string key_of(const std::string& tu, std::string mangled) {
    for (std::size_t i = 0; i + 2 < mangled.size(); ++i) {
      if ((mangled[i] == 'C' || mangled[i] == 'D') && mangled[i + 1] == '1' &&
          (mangled[i + 2] == 'E' || mangled[i + 2] == 'I' || mangled[i + 2] == 'B')) {
        mangled[i + 1] = '2';
        break;
      }
    }
    const bool internal = mangled.find("_GLOBAL__N") != std::string::npos ||
                          mangled.rfind("_ZL", 0) == 0 || mangled.rfind("_ZZL", 0) == 0;
    return internal ? tu + "|" + mangled : mangled;
  }
  /// What a called symbol is, worked out once per mangled name.
  struct Callee {
    std::string plain;  ///< demangled, without templates, parameters or return type
    std::string last;   ///< its last component
    bool blocks = false;
    int rank = -1;       ///< a RankedMutex guard's rank
    bool locks = false;  ///< the guard's locking constructor, or lock()
  };
  const Callee& callee(const std::string& mangled);
  void statement(const std::string& tu, std::string_view line, int seq);
  void close_body();

  std::string prefix_;
  CodeModel model_;
  std::unordered_map<std::string, std::size_t> index_;  ///< defined functions
  std::unordered_map<std::string, Callee> callees_;
  std::multimap<std::string, std::string> by_pretty_;  ///< pretty -> key
  std::map<std::string, std::map<int, std::string>> vtables_;
  std::map<std::string, std::vector<std::pair<std::string, int>>> layouts_;
  std::multimap<std::string, std::string> classes_;  ///< short -> qualified
  std::set<std::string> seen_classes_;
  std::set<std::string> repo_files_;
  std::vector<Pending> pending_;
  std::optional<Body> body_;
  std::string path_, file_;  ///< the last statement's path, repo-relative if repo_
  bool repo_ = false;
};

const Loader::Callee& Loader::callee(const std::string& mangled) {
  auto [it, fresh] = callees_.try_emplace(mangled);
  Callee& c = it->second;
  if (!fresh) return c;
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> d(
      abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status), std::free);
  const std::string name = status == 0 ? std::string(d.get()) : mangled;
  c.plain = strip_templates(without_params(name));
  c.plain.erase(0, c.plain.rfind(' ') + 1);  // a template's return type
  c.last = last_component(c.plain);
  c.blocks = is_blocking(c.plain);
  const std::size_t rank_at = name.find("LockRank)");
  if (rank_at != std::string::npos && (c.plain.starts_with("std::lock_guard::") ||
                                       c.plain.starts_with("std::unique_lock::") ||
                                       c.plain.starts_with("std::scoped_lock::"))) {
    c.rank = std::atoi(name.c_str() + rank_at + 9);
    c.locks = c.last == "lock" ||
              (name.find(c.last + "(apio::debug::RankedMutex") != std::string::npos &&
               name.find("_lock_t") == std::string::npos);
  }
  return c;
}

void Loader::load_classes(const std::string& text) {
  // "Vtable for C" lists C's vtable by byte offset; "Class C" lays out
  // C's base subobjects, each with the vtable offset its vptr holds
  // (a primary base shares its derived class's).  Every unit repeats
  // the classes it includes: the first copy wins.
  for_parts(text, "\n\n", [&](std::string_view block) {
    const bool vtable = block.starts_with("Vtable for ");
    const bool polymorphic = block.find("vptr=") != std::string_view::npos;
    if (!vtable && !(block.starts_with("Class ") && polymorphic)) return;
    const std::string cls(block.substr(vtable ? 11 : 6, block.find('\n') - (vtable ? 11 : 6)));
    if (!(vtable ? vtables_.try_emplace(cls).second : seen_classes_.insert(cls).second)) return;
    if (!vtable) classes_.insert({last_component(strip_templates(cls)), cls});
    std::string base;
    std::map<std::string, int> offsets;
    for_parts(block.substr(block.find('\n') + 1), "\n", [&](std::string_view line) {
      if (line.empty()) {
      } else if (vtable) {
        const std::size_t entry = line.find("))");
        if (std::isdigit(static_cast<unsigned char>(line[0])) && entry != std::string_view::npos) {
          vtables_[cls][std::atoi(line.data())] = std::string(line.substr(entry + 2));
        }
      } else if (line[0] != ' ') {
        base = std::string(line.substr(0, line.find(" (0x")));
      } else if (line.find("vptr=") != std::string_view::npos) {
        offsets[base] = std::atoi(line.data() + line.rfind("+ ") + 2);
      } else if (const std::size_t p = line.find("primary-for "); p != std::string_view::npos) {
        const std::string of(line.substr(p + 12, line.find(" (0x", p) - p - 12));
        if (offsets.count(of) > 0) offsets[base] = offsets[of];
      }
    });
    for (const auto& [b, off] : offsets) layouts_[b].push_back({cls, off});
  });
}

void Loader::close_body() {
  if (!body_) return;
  Function& fn = model_.functions[body_->fn];
  const std::vector<Hold> holds = holds_of(std::move(body_->locks));
  for (auto& [pos, a] : body_->acquires) {
    a.held_before = held_at(holds, pos);
    fn.acquires.push_back(std::move(a));
  }
  for (auto& [pos, p] : body_->calls) {
    p.call.held = held_at(holds, pos);
    pending_.push_back(std::move(p));
  }
  body_.reset();
}

void Loader::statement(const std::string& tu, std::string_view line, int seq) {
  // "  [file:line:col] [lhs = ]callee (args);"
  const std::size_t close = line.find("] ");
  if (close == std::string_view::npos) return;
  const std::string_view loc = line.substr(3, close - 3);
  const std::size_t c2 = loc.rfind(':');
  const std::size_t c1 = c2 == 0 || c2 == std::string_view::npos ? c2 : loc.rfind(':', c2 - 1);
  if (c1 == std::string_view::npos || c1 == c2) return;
  if (loc.substr(0, c1) != path_) {  // consecutive statements share a file
    path_ = std::string(loc.substr(0, c1));
    repo_ = path_.starts_with(prefix_);
    file_ = repo_ ? path_.substr(prefix_.size()) : path_;
    if (repo_) repo_files_.insert(file_);
  }
  const bool repo = repo_;
  const Site site{file_, std::atoi(loc.data() + c1 + 1)};
  // Library code GCC inlines even at -O0 (atomic waits) keeps its own
  // position: it blocks at the enclosing repo line.
  if (repo) body_->repo_line = site;
  const Pos pos{site.line, std::atoi(loc.data() + c2 + 1), seq};
  std::string_view rest = line.substr(close + 2);
  const std::size_t eq = rest.find(" = ");
  const std::string_view rhs = eq != std::string_view::npos && eq < rest.find('(')
                                   ? rest.substr(eq + 3) : rest;
  std::size_t callee_at = std::string_view::npos;
  Pending p{body_->fn, "", "", 0, Call{site, 0, {}}};

  if (rhs.rfind("OBJ_TYPE_REF(", 0) == 0) {
    // OBJ_TYPE_REF(_11;(struct Backend)_63->3B): slot 3 of Backend.
    const std::size_t open = rhs.find(";("), sp = rhs.find(' ', open);
    const std::size_t shut = rhs.find(')', sp), arrow = rhs.find("->", shut);
    if (repo && arrow != std::string_view::npos) {
      p.cls = std::string(rhs.substr(sp + 1, shut - sp - 1));
      p.slot = std::atoi(rhs.data() + arrow + 2);
      body_->calls.push_back({pos, p});
    }
  } else {
    std::size_t n = 0;
    while (n < rhs.size() && is_ident(rhs[n])) ++n;
    const std::string_view name = rhs.substr(0, n);
    const bool ssa =  // a call through a pointer in an SSA name (_3)
        name.size() > 1 && name[0] == '_' && std::isdigit(static_cast<unsigned char>(name[1]));
    if (n > 0 && rhs.substr(n, 2) == " (" && !ssa && name != "if" && name != "switch") {
      callee_at = static_cast<std::size_t>(rhs.data() - line.data());
      const std::string mangled(rhs.substr(0, n));
      const Callee& c = callee(mangled);
      if (repo && c.rank >= 0) {
        // The lock object is the first argument: "([loc] &lock, _18)".
        std::string_view arg = rhs.substr(n + 2);
        if (arg.rfind('[', 0) == 0) arg.remove_prefix(arg.find("] ") + 2);
        const std::string object(arg.substr(0, arg.find_first_of(",)")));
        if (c.locks) {
          body_->locks.push_back({LockEvent::kAcquire, object, c.rank, pos});
          body_->acquires.push_back({pos, Acquire{site, c.rank, {}}});
        } else if (c.last == "unlock" || c.last[0] == '~') {
          body_->locks.push_back({c.last == "unlock" ? LockEvent::kUnlock : LockEvent::kRelease,
                                  object, c.rank, pos});
        }
        return;
      }
      Function& fn = model_.functions[body_->fn];
      if (body_->repo_line && c.blocks) {
        const bool atomic = c.last.starts_with("__atomic_wait");
        fn.blocks.push_back({*body_->repo_line, atomic ? "wait" : c.last});
      }
      if (repo && c.plain.starts_with("apio::debug::detail::assert_on_")) {
        (c.last == "assert_on_stream" ? fn.stream_asserts : fn.rank_asserts).push_back(site);
      }
      p.key = key_of(tu, mangled);
      body_->calls.push_back({pos, p});
    }
  }
  // Every other mangled name is an address taken: a function's, or a
  // variable's, which finish() drops.
  for (std::size_t i = 0; (i = line.find("_Z", i)) != std::string_view::npos;) {
    std::size_t n = i;
    while (n < line.size() && is_ident(line[n])) ++n;
    if (i != callee_at && (i == 0 || !is_ident(line[i - 1]))) {
      p.key = key_of(tu, std::string(line.substr(i, n - i)));
      p.cls.clear();
      body_->calls.push_back({pos, p});
    }
    i = n;
  }
}

void Loader::load_gimple(const std::string& tu, const std::string& text) {
  // One part per function: "<pretty> (<mangled>, funcdef_no=...)\n<body>".
  for_parts(text, "\n;; Function ", [&](std::string_view part) {
    const std::string_view head = part.substr(0, part.find('\n'));
    const std::size_t fd = head.find(", funcdef_no=");
    const std::size_t open = head.rfind(" (", fd);
    if (fd == std::string_view::npos || open == std::string_view::npos) return;
    const std::string mangled(head.substr(open + 2, fd - open - 2));
    const std::string pretty(head.substr(0, open));
    const std::string key = key_of(tu, mangled);
    const std::size_t r = pretty.find("LockRank::"), v = mangled.find("LockRankE");
    if (r != std::string::npos && v != std::string::npos) {
      model_.rank_names[std::atoi(mangled.c_str() + v + 9)] =
          pretty.substr(r + 10, pretty.find_first_of(">,", r) - r - 10);
    }
    if (!index_.try_emplace(key, model_.functions.size()).second) return;
    model_.functions.push_back({display(pretty), {}, {}, {}, {}, {}});
    by_pretty_.insert({pretty, key});
    body_ = Body{model_.functions.size() - 1, {}, {}, {}, {}};
    int seq = 0;
    for_parts(part, "\n", [&](std::string_view line) {
      if (line.starts_with("  [")) statement(tu, line, ++seq);
    });
    close_body();
  });
}

CodeModel Loader::finish(const fs::path& root) {
  for (Pending& p : pending_) {
    std::set<std::string> targets{p.key};
    if (p.key.empty()) {
      auto [lo, hi] = classes_.equal_range(p.cls);
      for (auto it = lo; it != hi; ++it) {
        for (const auto& [cls, off] : layouts_[it->second]) {
          const auto& entries = vtables_[cls];
          auto e = entries.find(off + 8 * p.slot);
          if (e == entries.end()) continue;
          const std::size_t thunk = e->second.find("_ZTh");
          if (thunk != std::string::npos) {
            targets.insert(key_of("", "_Z" + e->second.substr(e->second.find('_', thunk + 4) + 1)));
          }
          auto [plo, phi] = by_pretty_.equal_range(e->second);
          for (auto q = plo; q != phi; ++q) targets.insert(q->second);
        }
      }
    }
    for (const std::string& key : targets) {
      auto it = index_.find(key);
      if (it == index_.end()) continue;  // declared only, or a variable
      p.call.callee = it->second;
      model_.functions[p.fn].calls.push_back(p.call);
    }
  }
  for (const std::string& rel : repo_files_) {
    SourceFile sf;
    if (load_source(root, root / rel, sf)) model_.files.push_back(std::move(sf));
  }
  return std::move(model_);
}

}  // namespace

std::string Function::short_name() const {
  return last_component(strip_templates(name));
}

const SourceFile* CodeModel::file_of(const std::string& rel) const {
  auto it = std::find_if(files.begin(), files.end(),
                         [&](const SourceFile& f) { return f.rel == rel; });
  return it == files.end() ? nullptr : &*it;
}

std::string CodeModel::rank_name(int rank) const {
  auto it = rank_names.find(rank);
  return it == rank_names.end() ? std::to_string(rank) : it->second;
}

std::string CodeModel::rank_label(int rank) const {
  return rank_name(rank) + " (rank " + std::to_string(rank) + ")";
}

CodeModel load_model(const fs::path& root, const fs::path& dumps) {
  // Vtables are read at finish(), so the two kinds load in any order.
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dumps)) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  Loader loader(root);
  for (const fs::path& p : paths) {
    if (p.extension() == ".class") loader.load_classes(read_file(p));
    if (p.extension() == ".optimized") loader.load_gimple(p.generic_string(), read_file(p));
  }
  return loader.finish(root);
}

}  // namespace apio::analysis
