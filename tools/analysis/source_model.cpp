#include "analysis/source_model.h"

#include <algorithm>
#include <cctype>
#include <fstream>

namespace fs = std::filesystem;

namespace apio::analysis {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

namespace {

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True when position i in `line` starts a raw-string introducer
/// (R" with an optional encoding prefix already consumed by the caller).
bool raw_string_intro(const std::string& line, std::size_t i) {
  return line[i] == 'R' && i + 1 < line.size() && line[i + 1] == '"';
}

}  // namespace

bool has_token(std::string_view code, std::string_view needle) {
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool waived(std::string_view line, std::string_view rule) {
  const std::string marker = "apio-lint: allow(" + std::string(rule) + ")";
  return contains(line, marker);
}

std::string strip_noncode(const std::string& line, StripState& state) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    if (state.in_block_comment) {
      if (line.compare(i, 2, "*/") == 0) {
        state.in_block_comment = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    if (state.in_raw_string) {
      const std::size_t end = line.find(state.raw_delim, i);
      if (end == std::string::npos) return out;  // literal continues next line
      state.in_raw_string = false;
      i = end + state.raw_delim.size();
      out += '"';  // keep a closing quote so tokens stay balanced
      continue;
    }
    const char c = line[i];
    if (line.compare(i, 2, "/*") == 0) {
      state.in_block_comment = true;
      i += 2;
      continue;
    }
    if (line.compare(i, 2, "//") == 0) break;
    if (raw_string_intro(line, i) &&
        (i == 0 || !is_ident_char(line[i - 1]) ||
         // encoding prefixes (u8R", LR", ...) still start a raw string;
         // identifiers ending in R (FooR"...") cannot occur in valid C++.
         line[i - 1] == '8' || line[i - 1] == 'u' || line[i - 1] == 'U' ||
         line[i - 1] == 'L')) {
      // R"delim( ... )delim"
      const std::size_t open = line.find('(', i + 2);
      if (open != std::string::npos) {
        state.raw_delim = ")" + line.substr(i + 2, open - (i + 2)) + "\"";
        out += '"';
        const std::size_t close = line.find(state.raw_delim, open + 1);
        if (close == std::string::npos) {
          state.in_raw_string = true;
          return out;
        }
        i = close + state.raw_delim.size();
        state.raw_delim.clear();
        out += '"';
        continue;
      }
    }
    if (c == '"') {
      out += '"';
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == '"') {
          out += '"';
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (c == '\'' && !(i > 0 && std::isalnum(static_cast<unsigned char>(
                                    line[i - 1])))) {
      // character literal (but not a 1'000 digit separator)
      out += '\'';
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == '\'') {
          out += '\'';
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

bool load_source(const fs::path& root, const fs::path& file, SourceFile& out) {
  std::ifstream in(file);
  if (!in) return false;
  out.path = file.generic_string();
  out.rel = fs::relative(file, root).generic_string();
  out.raw.clear();
  out.code.clear();
  StripState state;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.raw.push_back(line);
    out.code.push_back(strip_noncode(line, state));
  }
  return true;
}

std::vector<fs::path> collect_sources(const fs::path& root,
                                      const std::vector<std::string>& dirs) {
  std::vector<fs::path> files;
  for (const auto& dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cpp") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace apio::analysis
