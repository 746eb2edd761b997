// Shared helpers for the bench binaries: a banner naming the figure or
// ablation being reproduced, and the standardized result record the
// regression gate (apio_bench_compare) reads.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace apio::bench {

/// Prints a banner naming the figure being reproduced.  Setting
/// APIO_OBS=1 (or requesting metrics JSON via APIO_BENCH_JSON) turns the
/// observability registry on for the bench run.
inline void banner(const std::string& title, const std::string& detail) {
  if (std::getenv("APIO_OBS") != nullptr ||
      std::getenv("APIO_BENCH_JSON") != nullptr) {
    obs::set_enabled(true);
  }
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", title.c_str(), detail.c_str());
  std::printf("================================================================\n");
}

/// One headline result a bench exports for regression gating.  The
/// noise class picks the comparison tolerance in apio_bench_compare:
/// "det" for deterministic simulator outputs (tight, symmetric),
/// "wall" for wall-clock measurements (generous, one-sided increase).
struct BenchValue {
  std::string metric;
  double value = 0.0;
  std::string units;
  std::string noise = "det";
};

/// Appends this bench's standardized result record as one JSON object
/// per line to the file named by APIO_BENCH_JSON (no-op when unset):
///   {"bench":NAME,"schema":1,"config":CONFIG,
///    "values":[{"metric":...,"value":...,"units":...,"noise":...}],
///    "metrics":<registry snapshot>}
/// Names, configs and metric ids are in-tree literals and must be
/// JSON-safe (no quotes/backslashes/control characters).
///
/// Returns the bench's exit status: 0 on success (or when the variable
/// is unset), 1 when the append fails — bench mains `return` this so a
/// CI run that loses its samples fails loudly instead of gating against
/// a truncated file:
///   APIO_BENCH_JSON=bench.jsonl ./build/bench/apio_figures fig1_scenarios
inline int record_bench_metrics(const std::string& bench_name,
                                const std::string& config = "",
                                const std::vector<BenchValue>& values = {}) {
  const char* path = std::getenv("APIO_BENCH_JSON");
  if (path == nullptr) return 0;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "bench: cannot append to APIO_BENCH_JSON=%s\n", path);
    return 1;
  }
  out << "{\"bench\":\"" << bench_name << "\",\"schema\":1,\"config\":\""
      << config << "\",\"values\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", values[i].value);
    out << (i > 0 ? "," : "") << "{\"metric\":\"" << values[i].metric
        << "\",\"value\":" << number << ",\"units\":\"" << values[i].units
        << "\",\"noise\":\"" << values[i].noise << "\"}";
  }
  out << "],\"metrics\":" << obs::Registry::instance().snapshot().to_json()
      << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: write to APIO_BENCH_JSON=%s failed\n", path);
    return 1;
  }
  return 0;
}

}  // namespace apio::bench
