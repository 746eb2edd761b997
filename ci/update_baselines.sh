#!/usr/bin/env bash
# Regenerates the committed bench baselines the regression gate
# (apio_bench_compare) diffs against.  Run after an intentional change
# to the simulator, the model, a gated bench's configuration, or the
# backend calls bench/e2e counts, then commit the refreshed
# bench/baselines/ together with the change that moved the numbers.
# The bench/e2e counts are rebuilt in build-e2e (see ci/e2e_det.sh).
#
# Usage: ci/update_baselines.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

if [[ ! -d "${BUILD}/bench" ]]; then
  echo "error: ${BUILD}/bench not found — build the default preset first" >&2
  exit 2
fi

mkdir -p bench/baselines
for bench in fig3_vpic_write fig7_overlap ablation_vectored_io fig_fairshare \
             fig_trace_overhead ablation_cache; do
  out="bench/baselines/${bench}.jsonl"
  rm -f "${out}"
  APIO_BENCH_JSON="${out}" "${BUILD}/bench/${bench}" >/dev/null
  echo "regenerated ${out}"
done

# bench/e2e exact counts live one directory down: the gated benches'
# --baselines directory scan must not expect them.
ci/e2e_det.sh bench/baselines/e2e/e2e_det.jsonl
echo "regenerated bench/baselines/e2e/e2e_det.jsonl"

"${BUILD}/tools/apio_bench_compare" bench/baselines/*.jsonl \
  --baselines bench/baselines >/dev/null
"${BUILD}/tools/apio_bench_compare" bench/baselines/e2e/*.jsonl \
  --baselines bench/baselines/e2e >/dev/null
echo "baselines self-consistent; commit bench/baselines/ with your change"
