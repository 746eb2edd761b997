#!/usr/bin/env bash
# Full verification pass for apio:
#
#   1. default build + complete ctest suite (includes the apio_lint
#      concurrency-hygiene check, the apio_analyze static-analysis
#      gate and the bench-smoke fixtures as test cases),
#   2. apio_analyze over src/ + tools/ with the checked-in baseline,
#      archiving the machine-readable report to
#      build/analysis-report.json (see DESIGN.md "Static analysis"),
#   3. bench regression gate: the gated benches (fig3, fig7, the
#      vectored-io ablation, the fig_fairshare fairness gate and the
#      fig_trace_overhead tracing-cost gate) re-emit their standardized
#      result JSON and apio_bench_compare diffs it against the committed
#      bench/baselines/ (hard gate; regenerate intentional moves with
#      ci/update_baselines.sh).  The sanitizer presets build with
#      APIO_BUILD_BENCHMARKS=OFF, so sanitized runs never hit the gate.
#   4. bench/e2e exact-count gate: ci/e2e_det.sh builds apio_e2e in
#      build-e2e, runs its four workloads at --scale 0.02 and turns the
#      `det` lines into bench JSON; apio_bench_compare --tol-det 0 diffs
#      them against bench/baselines/e2e/ (any drift fails),
#   5. trace artifacts: a small traced VPIC run through `apio_profile
#      trace` archives build/trace-report.json (critical-path report),
#      build/trace-metrics.prom (Prometheus snapshot) and
#      build/trace-chrome.json (Chrome timeline, checked to parse),
#   6. clang-tidy preset (skipped with a notice when clang-tidy is not
#      installed — the GCC-only CI image does not ship it),
#   7. ThreadSanitizer build + the `tsan`-labelled suite (the whole unit
#      suite plus reduced-iteration stress tests; zero reports allowed),
#   8. Address+UB-sanitizer build + the fault-matrix resilience suite:
#      the retry/degraded-mode paths juggle staged buffers across the
#      background stream, so they run under asan/ubsan explicitly, and
#      so do the backend suites, for the posix sieve's bounce-buffer
#      offset arithmetic, and the handle-lifetime and path-index suites,
#      for handles that outlive Group::remove and recycled buffers.
#
# Usage: ci/check.sh [--skip-tsan]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "usage: ci/check.sh [--skip-tsan]" >&2; exit 2 ;;
  esac
done

echo "==> [1/8] default build + full test suite"
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "==> [2/8] static analysis (apio_analyze)"
build/tools/apio_analyze . \
  --baseline tools/analysis/baseline.json \
  --json build/analysis-report.json
echo "    report archived at build/analysis-report.json"

echo "==> [3/8] bench regression gate"
BENCH_JSON_DIR="build/bench-json"
rm -rf "${BENCH_JSON_DIR}"
mkdir -p "${BENCH_JSON_DIR}"
APIO_BENCH_JSON="${BENCH_JSON_DIR}/fig3_vpic_write.jsonl" \
  build/bench/fig3_vpic_write >/dev/null
APIO_BENCH_JSON="${BENCH_JSON_DIR}/fig7_overlap.jsonl" \
  build/bench/fig7_overlap >/dev/null
APIO_BENCH_JSON="${BENCH_JSON_DIR}/ablation_vectored_io.jsonl" \
  build/bench/ablation_vectored_io >/dev/null
# fig_fairshare hard-fails on its own if the scheduler breaks weighted
# max-min fairness or priority-lane latency; the JSON diff on top only
# tracks drift of the exported shares/waits.
APIO_BENCH_JSON="${BENCH_JSON_DIR}/fig_fairshare.jsonl" \
  build/bench/fig_fairshare >/dev/null
# fig_trace_overhead hard-fails on its own if the per-request tracing
# work exceeds 2% of the modelled async write workload (deterministic
# proxy; the wall comparison is only a generous one-sided sanity bound).
APIO_BENCH_JSON="${BENCH_JSON_DIR}/fig_trace_overhead.jsonl" \
  build/bench/fig_trace_overhead >/dev/null
# ...and the same gate must TRIP when a tracing slowdown is injected:
# a 20 us busy-wait per minted trace puts the proxy >2x over budget.
# This keeps the deflaked gate honest — it still catches regressions.
if APIO_TRACE_INJECT_SPAN_DELAY_US=20 \
   APIO_BENCH_JSON="${BENCH_JSON_DIR}/fig_trace_overhead_inject.jsonl" \
   build/bench/fig_trace_overhead >/dev/null; then
  echo "error: fig_trace_overhead failed to catch an injected tracing slowdown" >&2
  exit 1
fi
rm -f "${BENCH_JSON_DIR}/fig_trace_overhead_inject.jsonl"
# ablation_cache hard-fails on its own if the burst-buffer cache loses
# its headline (epoch-aligned visibility >= 2x cheaper than
# write-through), corrupts data (per-mode checksums), or breaks the
# per-mode visibility contract.
APIO_BENCH_JSON="${BENCH_JSON_DIR}/ablation_cache.jsonl" \
  build/bench/ablation_cache >/dev/null
build/tools/apio_bench_compare \
  "${BENCH_JSON_DIR}/fig3_vpic_write.jsonl" \
  "${BENCH_JSON_DIR}/fig7_overlap.jsonl" \
  "${BENCH_JSON_DIR}/ablation_vectored_io.jsonl" \
  "${BENCH_JSON_DIR}/fig_fairshare.jsonl" \
  "${BENCH_JSON_DIR}/fig_trace_overhead.jsonl" \
  "${BENCH_JSON_DIR}/ablation_cache.jsonl" \
  --baselines bench/baselines --tol-det 10 --tol-wall 60

echo "==> [4/8] bench/e2e exact-count gate"
# Every det count of the four workloads must match exactly: a layer
# that splits a vectored batch or adds a backend call per op moves them.
ci/e2e_det.sh "${BENCH_JSON_DIR}/e2e_det.jsonl"
build/tools/apio_bench_compare "${BENCH_JSON_DIR}/e2e_det.jsonl" \
  --baselines bench/baselines/e2e --tol-det 0

echo "==> [5/8] trace artifacts (apio_profile trace)"
build/tools/apio_profile trace --ranks 4 --steps 2 \
  --export-report build/trace-report.json \
  --export-prom build/trace-metrics.prom \
  --chrome build/trace-chrome.json >/dev/null
python3 -m json.tool build/trace-chrome.json >/dev/null
echo "    critical-path report archived at build/trace-report.json"
echo "    Prometheus snapshot archived at build/trace-metrics.prom"
echo "    Chrome timeline (validated JSON) archived at build/trace-chrome.json"

echo "==> [6/8] clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --preset tidy
  cmake --build --preset tidy -j "${JOBS}"
else
  echo "    clang-tidy not found on PATH; skipping the tidy preset"
fi

if [[ "${SKIP_TSAN}" -eq 1 ]]; then
  echo "==> [7/8] ThreadSanitizer suite skipped (--skip-tsan)"
else
  echo "==> [7/8] ThreadSanitizer build + tsan-labelled suite"
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}"
  ctest --preset tsan -j "${JOBS}"
fi

echo "==> [8/8] asan-ubsan build + fault-matrix, async-connector, backend, handle-lifetime and path-index suites"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"
ctest --preset asan-ubsan -j "${JOBS}" \
  -R 'Resilience|FaultInjection|AsyncConnector|VectoredBackend|BackendContract|HandleLifetime|PathIndex'

echo "==> all checks passed"
