// Shared source model for apio's static tools.
//
// `apio_lint` (token/line-level hygiene rules) reads C++ sources with
// comment- and string-aware stripping and identifier token matching;
// `apio_analyze` (flow passes over GCC's dumps) reads the same files for
// waivers.  Both use the one `// apio-lint: allow(<rule>)` syntax, so a
// waiver accepted by one is recognised by the other.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace apio::analysis {

/// Substring containment (convenience shared by the line-based rules).
bool contains(std::string_view haystack, std::string_view needle);

/// Token match: `needle` occurs in `code` not preceded/followed by an
/// identifier character.
bool has_token(std::string_view code, std::string_view needle);

/// True when `line` carries an "apio-lint: allow(<rule>)" waiver.  Both
/// tools share this syntax; a waiver names exactly one rule, and a line
/// may carry several waivers.
bool waived(std::string_view line, std::string_view rule);

/// Cross-line lexer state for strip_noncode(): open /* */ comments and
/// open R"delim( ... )delim" raw string literals span lines.
struct StripState {
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_delim;  ///< the )delim" terminator being sought
};

/// Strips // and /* */ comments and the *contents* of string and
/// character literals (the delimiting quotes are kept so the token
/// stream stays balanced).  Preprocessor lines are passed through.
/// Digit separators (1'000) are not mistaken for character literals.
std::string strip_noncode(const std::string& line, StripState& state);

/// One loaded source file: raw lines (for waivers and preprocessor
/// detection) plus comment/string-stripped code lines, both indexed by
/// line number - 1.
struct SourceFile {
  std::string path;  ///< absolute path, generic form
  std::string rel;   ///< path relative to the repo root, generic form
  std::vector<std::string> raw;
  std::vector<std::string> code;

  /// True when raw line `line` (1-based) carries allow(<rule>).
  bool line_waived(std::size_t line, std::string_view rule) const {
    return line >= 1 && line <= raw.size() && waived(raw[line - 1], rule);
  }
};

/// Loads and strips one file.  Returns false when unreadable.
bool load_source(const std::filesystem::path& root,
                 const std::filesystem::path& file, SourceFile& out);

/// All .h/.cpp files under root/<dir> for each dir, sorted by path for
/// deterministic reports.  Missing dirs are skipped.
std::vector<std::filesystem::path> collect_sources(
    const std::filesystem::path& root, const std::vector<std::string>& dirs);

}  // namespace apio::analysis
