#!/usr/bin/env bash
# Exact counts of bench/e2e as bench JSON: builds apio_e2e into its own
# build directory, runs all four workloads at --scale 0.02 (seed 1) and
# writes each workload's `det <name> <count>` lines as one schema-1
# record (bench "e2e_det", config = workload, noise "det") to OUT.
#
# ci/check.sh diffs the result against bench/baselines/e2e/ with
# `apio_bench_compare --tol-det 0`; ci/update_baselines.sh writes that
# baseline.  The counts repeat exactly for a given workload and scale,
# so any drift means a layer now splits or adds backend calls.  Timing
# stays out: the workloads run with output checks on, and a failed
# check (apio_e2e exit 1) fails this script.
#
# Usage: ci/e2e_det.sh OUT.jsonl [build-dir]   (default: build-e2e)
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -lt 1 ]]; then
  echo "usage: ci/e2e_det.sh OUT.jsonl [build-dir]" >&2
  exit 2
fi
OUT="$1"
BUILD="${2:-build-e2e}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -S bench/e2e -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${BUILD}" --target apio_e2e -j "${JOBS}" >/dev/null

RUN_DIR="${BUILD}/run"
mkdir -p "${RUN_DIR}" "$(dirname "${OUT}")"
rm -f "${OUT}"
for workload in vpic_async vpic_sync amr_async coupled_stack; do
  "${BUILD}/apio_e2e" --workload "${workload}" --seed 1 --scale 0.02 \
      --dir "${RUN_DIR}" |
    awk -v workload="${workload}" '
      $1 == "det" {
        values = values sep sprintf("{\"metric\":\"%s\",\"value\":%s,\"units\":\"count\",\"noise\":\"det\"}", $2, $3)
        sep = ","
      }
      END {
        printf("{\"bench\":\"e2e_det\",\"schema\":1,\"config\":\"%s\",\"values\":[%s]}\n", workload, values)
      }' >>"${OUT}"
done
rm -rf "${RUN_DIR}"
