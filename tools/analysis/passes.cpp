#include "analysis/passes.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <ostream>
#include <sstream>

namespace apio::analysis {
namespace {

bool is_sleep_name(const std::string& s) {
  return s == "sleep_for" || s == "sleep_until" || s == "usleep" ||
         s == "nanosleep" || s == "join";
}

bool is_cv_wait_name(const std::string& s) {
  return s == "wait" || s == "wait_for" || s == "wait_until";
}

/// Results a caller must not silently drop (mirrors the [[nodiscard]]
/// annotations on the real APIs; the pass also covers code paths built
/// before the attribute existed).
bool is_must_check_name(const std::string& s) {
  static const std::set<std::string> kSet = {
      "write_v", "read_v", "errors", "num_errors", "error_messages", "test"};
  return kSet.count(s) > 0;
}

struct PassContext {
  const CodeModel& model;
  /// call_targets[f][c] = resolved callee indices of functions[f].calls[c].
  std::vector<std::vector<std::vector<std::size_t>>> call_targets;
  /// may_acquire[f] = ranks function f may acquire, transitively.
  std::vector<std::set<std::string>> may_acquire;

  explicit PassContext(const CodeModel& m) : model(m) {
    const std::size_t count = m.functions.size();
    call_targets.resize(count);
    may_acquire.resize(count);
    for (std::size_t f = 0; f < count; ++f) {
      const Function& fn = m.functions[f];
      call_targets[f].reserve(fn.calls.size());
      for (const CallSite& call : fn.calls) {
        call_targets[f].push_back(m.resolve(call, fn.cls));
      }
      for (const AcquireSite& a : fn.acquires) {
        may_acquire[f].insert(a.rank);
      }
    }
    // Fixpoint: propagate callee acquisitions to callers.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t f = 0; f < count; ++f) {
        for (const auto& targets : call_targets[f]) {
          for (const std::size_t g : targets) {
            for (const std::string& r : may_acquire[g]) {
              if (may_acquire[f].insert(r).second) changed = true;
            }
          }
        }
      }
    }
  }

  /// BFS parent chains from `start`; parents[g] = (parent fn, call line).
  std::map<std::size_t, std::pair<std::size_t, int>> reach(
      std::size_t start) const {
    std::map<std::size_t, std::pair<std::size_t, int>> parents;
    std::deque<std::size_t> work{start};
    std::set<std::size_t> seen{start};
    while (!work.empty()) {
      const std::size_t f = work.front();
      work.pop_front();
      const Function& fn = model.functions[f];
      for (std::size_t c = 0; c < fn.calls.size(); ++c) {
        for (const std::size_t g : call_targets[f][c]) {
          if (!seen.insert(g).second) continue;
          parents[g] = {f, fn.calls[c].line};
          work.push_back(g);
        }
      }
    }
    return parents;
  }

  /// Witness chain root -> ... -> g using `parents` from reach(root).
  std::vector<WitnessStep> chain(
      std::size_t root, std::size_t g,
      const std::map<std::size_t, std::pair<std::size_t, int>>& parents) const {
    std::vector<std::size_t> order{g};
    std::vector<int> lines{0};
    std::size_t cur = g;
    while (cur != root) {
      auto it = parents.find(cur);
      if (it == parents.end()) break;
      lines.push_back(it->second.second);
      cur = it->second.first;
      order.push_back(cur);
      if (order.size() > 64) break;  // cycle guard
    }
    std::reverse(order.begin(), order.end());
    std::reverse(lines.begin(), lines.end());
    std::vector<WitnessStep> steps;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Function& fn = model.functions[order[k]];
      WitnessStep step;
      step.function = fn.qualified;
      step.file = fn.file;
      // lines[k] is where order[k] calls order[k+1] (lines was built
      // innermost-first and reversed alongside order).
      step.line = k + 1 < order.size() ? lines[k] : fn.line;
      step.note = k + 1 < order.size()
                      ? "calls " + model.functions[order[k + 1]].name
                      : "";
      steps.push_back(std::move(step));
    }
    return steps;
  }
};

std::string rank_label(const CodeModel& m, const std::string& rank) {
  const int v = m.ranks.rank_of(rank);
  return rank + " (rank " + std::to_string(v) + ")";
}

void pass_lock_rank(const PassContext& ctx, std::vector<Finding>& out) {
  const CodeModel& m = ctx.model;
  std::set<std::string> seen;
  for (std::size_t f = 0; f < m.functions.size(); ++f) {
    const Function& fn = m.functions[f];
    // Direct: an acquire site with an equal-or-higher rank already held.
    for (const AcquireSite& a : fn.acquires) {
      const int av = m.ranks.rank_of(a.rank);
      if (av < 0) continue;
      for (const std::string& h : a.held_before) {
        const int hv = m.ranks.rank_of(h);
        if (hv < 0 || hv < av) continue;
        Finding fd;
        fd.rule = kRuleLockRank;
        fd.file = fn.file;
        fd.line = a.line;
        fd.function = fn.qualified;
        fd.message = (h == a.rank ? "may re-acquire " : "acquires ") +
                     rank_label(m, a.rank) + " while holding " +
                     rank_label(m, h) +
                     "; the declared order requires strictly increasing ranks";
        fd.key = std::string(kRuleLockRank) + "|" + fn.qualified + "|" + h +
                 ">" + a.rank + "|direct";
        fd.witness.push_back(
            {fn.qualified, fn.file, a.line, "acquires " + a.rank});
        if (seen.insert(fd.key).second) out.push_back(std::move(fd));
      }
    }
    // Transitive: a callee may acquire a rank <= one held at the call.
    for (std::size_t c = 0; c < fn.calls.size(); ++c) {
      const CallSite& call = fn.calls[c];
      if (call.held.empty()) continue;
      for (const std::size_t g : ctx.call_targets[f][c]) {
        for (const std::string& r : ctx.may_acquire[g]) {
          const int rv = m.ranks.rank_of(r);
          if (rv < 0) continue;
          for (const std::string& h : call.held) {
            const int hv = m.ranks.rank_of(h);
            if (hv < 0 || hv < rv) continue;
            const Function& callee = m.functions[g];
            Finding fd;
            fd.rule = kRuleLockRank;
            fd.file = fn.file;
            fd.line = call.line;
            fd.function = fn.qualified;
            fd.message = "call to " + callee.qualified + " may acquire " +
                         rank_label(m, r) + " while " + rank_label(m, h) +
                         " is held";
            fd.key = std::string(kRuleLockRank) + "|" + fn.qualified + "|" +
                     h + ">" + r + "|" + callee.qualified;
            if (!seen.insert(fd.key).second) continue;
            // Witness: this call site, then the path inside the callee
            // down to a function that directly acquires r.
            fd.witness.push_back({fn.qualified, fn.file, call.line,
                                  "calls " + callee.name + " holding " + h});
            const auto parents = ctx.reach(g);
            std::size_t target = g;
            bool found = false;
            auto acquires_r = [&](std::size_t idx) {
              for (const AcquireSite& a : m.functions[idx].acquires) {
                if (a.rank == r) return true;
              }
              return false;
            };
            if (acquires_r(g)) {
              found = true;
            } else {
              for (const auto& [idx, _] : parents) {
                if (acquires_r(idx)) {
                  target = idx;
                  found = true;
                  break;
                }
              }
            }
            if (found) {
              auto steps = ctx.chain(g, target, parents);
              for (auto& s : steps) {
                if (s.note.empty()) {
                  for (const AcquireSite& a : m.functions[target].acquires) {
                    if (a.rank == r) {
                      s.line = a.line;
                      break;
                    }
                  }
                  s.note = "acquires " + r;
                }
                fd.witness.push_back(std::move(s));
              }
            }
            out.push_back(std::move(fd));
          }
        }
      }
    }
  }
}

void pass_thread_context(const PassContext& ctx, std::vector<Finding>& out) {
  const CodeModel& m = ctx.model;
  std::set<std::string> seen;
  for (std::size_t root = 0; root < m.functions.size(); ++root) {
    if (!m.functions[root].asserts_stream) continue;
    const Function& rfn = m.functions[root];
    const auto parents = ctx.reach(root);
    auto visit = [&](std::size_t g) {
      const Function& fn = m.functions[g];
      if (g != root && fn.asserts_rank) {
        Finding fd;
        fd.rule = kRuleThreadContext;
        fd.file = fn.file;
        fd.line = fn.assert_rank_line;
        fd.function = fn.qualified;
        fd.message = fn.qualified +
                     " asserts rank context but is reachable from stream "
                     "context " +
                     rfn.qualified;
        fd.key = std::string(kRuleThreadContext) + "|" + rfn.qualified + "|" +
                 fn.qualified + "|rank-context";
        if (seen.insert(fd.key).second) {
          fd.witness = ctx.chain(root, g, parents);
          if (!fd.witness.empty()) {
            fd.witness.back().line = fn.assert_rank_line;
            fd.witness.back().note = "asserts rank context";
          }
          out.push_back(std::move(fd));
        }
      }
      for (const CallSite& call : fn.calls) {
        const bool sleeps = is_sleep_name(call.name);
        const bool cv_wait = is_cv_wait_name(call.name) &&
                             !call.receiver.empty() &&
                             m.cv_names.count(call.receiver) > 0;
        if (!sleeps && !cv_wait) continue;
        Finding fd;
        fd.rule = kRuleThreadContext;
        fd.file = fn.file;
        fd.line = call.line;
        fd.function = fn.qualified;
        fd.message = "blocking " + call.name +
                     (cv_wait ? " on " + call.receiver : "") +
                     " reachable from stream context " + rfn.qualified;
        fd.key = std::string(kRuleThreadContext) + "|" + rfn.qualified + "|" +
                 fn.qualified + "|" + call.name;
        if (!seen.insert(fd.key).second) continue;
        fd.witness = ctx.chain(root, g, parents);
        if (!fd.witness.empty()) {
          fd.witness.back().line = call.line;
          fd.witness.back().note = "blocks in " + call.name;
        }
        out.push_back(std::move(fd));
      }
    };
    visit(root);
    for (const auto& [g, _] : parents) visit(g);
  }
}

void pass_unchecked_outcome(const PassContext& ctx, std::vector<Finding>& out) {
  const CodeModel& m = ctx.model;
  std::map<std::string, int> ordinal;
  for (const Function& fn : m.functions) {
    for (const CallSite& call : fn.calls) {
      if (!call.stmt_discard || !is_must_check_name(call.name)) continue;
      Finding fd;
      fd.rule = kRuleUncheckedOutcome;
      fd.file = fn.file;
      fd.line = call.line;
      fd.function = fn.qualified;
      fd.message = "result of " + call.name +
                   "() is discarded; check it, or waive with a comment";
      std::string key = std::string(kRuleUncheckedOutcome) + "|" +
                        fn.qualified + "|" + call.name;
      const int count = ordinal[key]++;
      if (count > 0) key += "|#" + std::to_string(count + 1);
      fd.key = std::move(key);
      fd.witness.push_back({fn.qualified, fn.file, call.line,
                            "discards result of " + call.name});
      out.push_back(std::move(fd));
    }
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
  pass_unchecked_outcome(ctx, raw);

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
  static const char* kRules[] = {kRuleLockRank, kRuleThreadContext,
                                 kRuleUncheckedOutcome};
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
  if (!in) {
    err = "cannot open " + path.string();
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t anchor = text.find("\"findings\"");
  if (anchor == std::string::npos) {
    err = "no \"findings\" array in " + path.string();
    return false;
  }
  const std::size_t open = text.find('[', anchor);
  if (open == std::string::npos) {
    err = "malformed baseline " + path.string();
    return false;
  }
  std::size_t i = open + 1;
  while (i < text.size() && text[i] != ']') {
    if (text[i] == '"') {
      std::string cur;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        cur += text[i++];
      }
      if (i >= text.size()) {
        err = "unterminated string in " + path.string();
        return false;
      }
      ++i;  // closing quote
      keys.insert(cur);
    } else {
      ++i;
    }
  }
  return true;
}

}  // namespace apio::analysis
