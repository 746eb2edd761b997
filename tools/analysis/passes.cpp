#include "analysis/passes.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <ostream>
#include <sstream>

namespace apio::analysis {
namespace {

struct PassContext {
  const CodeModel& model;
  /// may_acquire[f] = ranks function f may acquire, transitively.
  std::vector<std::set<int>> may_acquire;

  explicit PassContext(const CodeModel& m) : model(m), may_acquire(m.functions.size()) {
    // Each acquisition flows to every caller, over the reversed graph.
    std::vector<std::vector<std::size_t>> callers(m.functions.size());
    std::vector<std::pair<std::size_t, int>> work;
    for (std::size_t f = 0; f < m.functions.size(); ++f) {
      for (const Call& c : m.functions[f].calls) callers[c.callee].push_back(f);
      for (const Acquire& a : m.functions[f].acquires) {
        if (may_acquire[f].insert(a.rank).second) work.push_back({f, a.rank});
      }
    }
    while (!work.empty()) {
      const auto [f, r] = work.back();
      work.pop_back();
      for (const std::size_t g : callers[f]) {
        if (may_acquire[g].insert(r).second) work.push_back({g, r});
      }
    }
  }

  /// BFS parents from `start`: parents[g] = (caller, index of its call).
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> reach(
      std::size_t start) const {
    std::map<std::size_t, std::pair<std::size_t, std::size_t>> parents;
    std::deque<std::size_t> work{start};
    std::set<std::size_t> seen{start};
    while (!work.empty()) {
      const std::size_t f = work.front();
      work.pop_front();
      const auto& calls = model.functions[f].calls;
      for (std::size_t c = 0; c < calls.size(); ++c) {
        if (!seen.insert(calls[c].callee).second) continue;
        parents[calls[c].callee] = {f, c};
        work.push_back(calls[c].callee);
      }
    }
    return parents;
  }

  /// Witness chain root -> ... -> g (parents from reach(root)), ending
  /// at `last` in g.
  std::vector<WitnessStep> chain(
      std::size_t root, std::size_t g,
      const std::map<std::size_t, std::pair<std::size_t, std::size_t>>& parents,
      const Site& last, const std::string& note) const {
    std::vector<WitnessStep> steps{{model.functions[g].name, last.file, last.line, note}};
    for (std::size_t cur = g; cur != root && steps.size() <= 64;) {
      auto it = parents.find(cur);
      if (it == parents.end()) break;
      const auto [f, c] = it->second;
      const Call& call = model.functions[f].calls[c];
      steps.push_back({model.functions[f].name, call.file, call.line,
                       "calls " + model.functions[cur].short_name()});
      cur = f;
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }
};

void pass_lock_rank(const PassContext& ctx, std::vector<Finding>& out) {
  const CodeModel& m = ctx.model;
  std::set<std::string> seen;
  for (const Function& fn : m.functions) {
    // Direct: an acquire site with an equal-or-higher rank already held.
    for (const Acquire& a : fn.acquires) {
      for (const int h : a.held_before) {
        if (h < a.rank) continue;
        Finding fd{kRuleLockRank, a.file, a.line, fn.name,
                   (h == a.rank ? "may re-acquire " : "acquires ") + m.rank_label(a.rank) +
                       " while holding " + m.rank_label(h) +
                       "; the declared order requires strictly increasing ranks",
                   std::string(kRuleLockRank) + "|" + fn.name + "|" + m.rank_name(h) + ">" +
                       m.rank_name(a.rank) + "|direct",
                   {{fn.name, a.file, a.line, "acquires " + m.rank_name(a.rank)}}};
        if (seen.insert(fd.key).second) out.push_back(std::move(fd));
      }
    }
    // Transitive: a callee may acquire a rank <= one held at the call.
    for (const Call& call : fn.calls) {
      const Function& callee = m.functions[call.callee];
      for (const int r : ctx.may_acquire[call.callee]) {
        for (const int h : call.held) {
          if (h < r) continue;
          const std::string rn = m.rank_name(r), hn = m.rank_name(h);
          Finding fd{kRuleLockRank, call.file, call.line, fn.name,
                     "call to " + callee.name + " may acquire " + m.rank_label(r) +
                         " while " + m.rank_label(h) + " is held",
                     std::string(kRuleLockRank) + "|" + fn.name + "|" + hn + ">" + rn + "|" +
                         callee.name,
                     {{fn.name, call.file, call.line,
                       "calls " + callee.short_name() + " holding " + hn}}};
          if (!seen.insert(fd.key).second) continue;
          // Witness: this call site, then the path inside the callee
          // down to a function that directly acquires r.
          auto parents = ctx.reach(call.callee);
          parents[call.callee] = {};
          for (const auto& [g, _] : parents) {
            const auto& acq = m.functions[g].acquires;
            auto a = std::find_if(acq.begin(), acq.end(),
                                  [&](const Acquire& x) { return x.rank == r; });
            if (a == acq.end()) continue;
            for (auto& step : ctx.chain(call.callee, g, parents, *a, "acquires " + rn)) {
              fd.witness.push_back(std::move(step));
            }
            break;
          }
          out.push_back(std::move(fd));
        }
      }
    }
  }
}

void pass_thread_context(const PassContext& ctx, std::vector<Finding>& out) {
  const CodeModel& m = ctx.model;
  std::set<std::string> seen;
  for (std::size_t root = 0; root < m.functions.size(); ++root) {
    if (m.functions[root].stream_asserts.empty()) continue;
    const std::string& rname = m.functions[root].name;
    const auto parents = ctx.reach(root);
    auto report = [&](std::size_t g, const Site& site, const std::string& what,
                      const std::string& message, const std::string& note) {
      const Function& fn = m.functions[g];
      Finding fd{kRuleThreadContext, site.file, site.line, fn.name, message,
                 std::string(kRuleThreadContext) + "|" + rname + "|" + fn.name + "|" + what,
                 ctx.chain(root, g, parents, site, note)};
      if (seen.insert(fd.key).second) out.push_back(std::move(fd));
    };
    auto visit = [&](std::size_t g) {
      const Function& fn = m.functions[g];
      for (const Site& s : fn.rank_asserts) {
        if (g == root) continue;
        report(g, s, "rank-context",
               fn.name + " asserts rank context but is reachable from stream context " + rname,
               "asserts rank context");
      }
      for (const Block& b : fn.blocks) {
        report(g, b, b.primitive,
               "blocking " + b.primitive + " reachable from stream context " + rname,
               "blocks in " + b.primitive);
      }
    };
    visit(root);
    for (const auto& [g, _] : parents) visit(g);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void finding_json(const Finding& f, std::ostringstream& os,
                  const char* indent) {
  os << indent << "{\"rule\": \"" << json_escape(f.rule) << "\", \"file\": \""
     << json_escape(f.file) << "\", \"line\": " << f.line
     << ", \"function\": \"" << json_escape(f.function)
     << "\", \"message\": \"" << json_escape(f.message) << "\", \"key\": \""
     << json_escape(f.key) << "\", \"witness\": [";
  for (std::size_t i = 0; i < f.witness.size(); ++i) {
    const WitnessStep& w = f.witness[i];
    if (i > 0) os << ", ";
    os << "{\"function\": \"" << json_escape(w.function) << "\", \"file\": \""
       << json_escape(w.file) << "\", \"line\": " << w.line
       << ", \"note\": \"" << json_escape(w.note) << "\"}";
  }
  os << "]}";
}

}  // namespace

Analysis analyze(const CodeModel& model, const std::set<std::string>& baseline) {
  PassContext ctx(model);
  std::vector<Finding> raw;
  pass_lock_rank(ctx, raw);
  pass_thread_context(ctx, raw);

  Analysis result;
  // (file, line, rule) of waivers that suppressed something.
  std::set<std::tuple<std::string, int, std::string>> used;
  for (Finding& f : raw) {
    const SourceFile* sf = model.file_of(f.file);
    if (sf != nullptr && sf->line_waived(static_cast<std::size_t>(f.line),
                                         f.rule)) {
      used.insert({f.file, f.line, f.rule});
      continue;  // waived
    }
    if (baseline.count(f.key) > 0) {
      result.baselined.push_back(std::move(f));
    } else {
      result.findings.push_back(std::move(f));
    }
  }

  // Waivers naming our rules that suppressed nothing are stale.
  static const char* kRules[] = {kRuleLockRank, kRuleThreadContext};
  for (const SourceFile& sf : model.files) {
    for (std::size_t li = 0; li < sf.raw.size(); ++li) {
      for (const char* rule : kRules) {
        if (!waived(sf.raw[li], rule)) continue;
        const int line = static_cast<int>(li) + 1;
        if (used.count({sf.rel, line, rule}) == 0) {
          result.stale_waivers.push_back({sf.rel, line, rule});
        }
      }
    }
  }

  auto by_location = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.key) <
           std::tie(b.file, b.line, b.rule, b.key);
  };
  std::sort(result.findings.begin(), result.findings.end(), by_location);
  std::sort(result.baselined.begin(), result.baselined.end(), by_location);
  return result;
}

void print_text(const Analysis& analysis, std::ostream& os) {
  for (const Finding& f : analysis.findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
    for (std::size_t i = 0; i < f.witness.size(); ++i) {
      const WitnessStep& w = f.witness[i];
      os << "    #" << i << " " << w.function << " (" << w.file << ":"
         << w.line << ")";
      if (!w.note.empty()) os << " " << w.note;
      os << "\n";
    }
  }
  for (const StaleWaiver& s : analysis.stale_waivers) {
    os << s.file << ":" << s.line << ": [stale-waiver] allow(" << s.rule
       << ") matches no " << s.rule << " finding\n";
  }
  if (analysis.clean()) {
    os << "apio_analyze: clean";
    if (!analysis.baselined.empty()) {
      os << " (" << analysis.baselined.size() << " baselined)";
    }
    os << "\n";
  } else {
    os << "apio_analyze: " << analysis.findings.size() << " finding(s), "
       << analysis.stale_waivers.size() << " stale waiver(s)";
    if (!analysis.baselined.empty()) {
      os << ", " << analysis.baselined.size() << " baselined";
    }
    os << "\n";
  }
}

std::string to_json(const Analysis& analysis) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"apio_analyze\",\n  \"version\": 1,\n"
     << "  \"findings\": [\n";
  for (std::size_t i = 0; i < analysis.findings.size(); ++i) {
    if (i > 0) os << ",\n";
    finding_json(analysis.findings[i], os, "    ");
  }
  os << "\n  ],\n  \"baselined\": " << analysis.baselined.size()
     << ",\n  \"stale_waivers\": [\n";
  for (std::size_t i = 0; i < analysis.stale_waivers.size(); ++i) {
    const StaleWaiver& s = analysis.stale_waivers[i];
    if (i > 0) os << ",\n";
    os << "    {\"file\": \"" << json_escape(s.file)
       << "\", \"line\": " << s.line << ", \"rule\": \""
       << json_escape(s.rule) << "\"}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string baseline_json(const Analysis& analysis) {
  std::set<std::string> keys;
  for (const Finding& f : analysis.findings) keys.insert(f.key);
  for (const Finding& f : analysis.baselined) keys.insert(f.key);
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"findings\": [\n";
  std::size_t i = 0;
  for (const std::string& k : keys) {
    if (i++ > 0) os << ",\n";
    os << "    \"" << json_escape(k) << "\"";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool read_baseline(const std::filesystem::path& path,
                   std::set<std::string>& keys, std::string& err) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t anchor = text.find("\"findings\"");
  const std::size_t open = text.find('[', anchor);
  err = !in ? "cannot open " + path.string()
            : anchor == std::string::npos || open == std::string::npos
                ? "no \"findings\" array in " + path.string()
                : "";
  for (std::size_t i = open + 1; err.empty() && i < text.size() && text[i] != ']'; ++i) {
    if (text[i] != '"') continue;
    std::string key;
    while (++i < text.size() && text[i] != '"') key += text[i] == '\\' ? text[++i] : text[i];
    if (i >= text.size()) err = "unterminated string in " + path.string();
    keys.insert(key);
  }
  return err.empty();
}

}  // namespace apio::analysis
