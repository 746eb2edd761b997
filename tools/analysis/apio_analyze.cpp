// apio_analyze — whole-repo call-graph static analyzer.
//
// Usage:
//   apio_analyze <repo-root> <dump-dir> [--json FILE]
//                [--baseline FILE] [--write-baseline FILE]
//
// Reads the GCC dumps under <dump-dir> (the apio_analysis_dumps build
// target: every src/ and tools/ translation unit), builds the call
// graph GCC saw, and runs two flow passes over the code in
// <repo-root>: lock-rank order and thread-context blocking (see
// DESIGN.md "Static analysis").
//
// Exit codes: 0 clean (modulo waivers/baseline), 1 findings or stale
// waivers, 2 usage/environment error.  --json writes a SARIF-lite
// report; --baseline suppresses previously accepted finding keys;
// --write-baseline freezes the current findings as the new baseline.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/passes.h"

namespace fs = std::filesystem;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <repo-root> <dump-dir> [--json FILE]"
               " [--baseline FILE] [--write-baseline FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  fs::path root, dumps;
  std::string json_path, baseline_path, write_baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    if (arg == "--json") {
      if (!next(json_path)) return usage(argv[0]);
    } else if (arg == "--baseline") {
      if (!next(baseline_path)) return usage(argv[0]);
    } else if (arg == "--write-baseline") {
      if (!next(write_baseline_path)) return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (root.empty()) {
      root = arg;
    } else if (dumps.empty()) {
      dumps = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (dumps.empty()) return usage(argv[0]);

  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "apio_analyze: cannot resolve repo root: " << ec.message()
              << "\n";
    return 2;
  }
  if (!fs::is_directory(dumps)) {
    std::cerr << "apio_analyze: no dump directory " << dumps
              << " (build the apio_analysis_dumps target)\n";
    return 2;
  }

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    std::string err;
    if (!apio::analysis::read_baseline(baseline_path, baseline, err)) {
      std::cerr << "apio_analyze: " << err << "\n";
      return 2;
    }
  }

  const apio::analysis::CodeModel model =
      apio::analysis::load_model(root, dumps);
  const apio::analysis::Analysis result =
      apio::analysis::analyze(model, baseline);

  apio::analysis::print_text(result, result.clean() ? std::cout : std::cerr);

  const std::pair<std::string, std::string> outputs[] = {
      {json_path, apio::analysis::to_json(result)},
      {write_baseline_path, apio::analysis::baseline_json(result)}};
  for (const auto& [path, text] : outputs) {
    if (path.empty()) continue;
    std::ofstream out(path);
    if (!(out << text)) {
      std::cerr << "apio_analyze: cannot write " << path << "\n";
      return 2;
    }
  }

  return result.clean() ? 0 : 1;
}
