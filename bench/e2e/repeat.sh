#!/usr/bin/env bash
# Repeatability check for apio_e2e.
#
#   bench/e2e/repeat.sh [-k RUNS] [-s SECONDS] [-w "WORKLOAD ..."] [-b FIRST_SEED]
#
# Runs each workload RUNS times through bench/e2e/run.py, reversing the
# workload order every round and giving each round its own seed.  For
# every end-to-end metric in BENCHMARK.json it prints the median, the
# quartiles and the spread (interquartile range / median) against the
# metric's bound.  Exits 1 when a spread exceeds its bound (setup_s is
# reported but exempt, as its bound is on the median) or when a det
# count differs between runs of one workload.  Run it from anywhere in
# the repository; outputs are kept in .bench_build/repeat.
set -euo pipefail

runs=5
seconds=12
workloads="vpic_async vpic_sync amr_async coupled_stack"
first_seed=1000
while getopts "k:s:w:b:" opt; do
  case "$opt" in
    k) runs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    w) workloads="$OPTARG" ;;
    b) first_seed="$OPTARG" ;;
    *) sed -n '4,5p' "$0" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/../.."
out=.bench_build/repeat
rm -rf "$out"
mkdir -p "$out"

cores=$(nproc)
load=$(cut -d' ' -f1 /proc/loadavg)
if awk -v l="$load" -v c="$cores" 'BEGIN { exit !(l > c / 2) }'; then
  echo "warning: load average $load is above nproc/2 = $((cores / 2)); spreads will be wider" >&2
fi

read -r -a order <<< "$workloads"
for ((i = 0; i < runs; i++)); do
  seed=$((first_seed + i))
  for w in "${order[@]}"; do
    echo "round $((i + 1))/$runs: $w seed $seed" >&2
    python3 bench/e2e/run.py --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 0 > "$out/$w.$i.out" 2>> "$out/stderr.log"
  done
  reversed=()
  for ((j = ${#order[@]} - 1; j >= 0; j--)); do reversed+=("${order[j]}"); done
  order=("${reversed[@]}")
done

python3 - "$out" "$runs" $workloads <<'EOF'
import json, statistics, sys
from pathlib import Path

out, runs, workloads = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
spec = json.loads(Path("BENCHMARK.json").read_text())
failed = False
for w in workloads:
    results, dets = [], []
    for i in range(runs):
        lines = (out / f"{w}.{i}.out").read_text().splitlines()
        results.append(json.loads(lines[-1])["metrics"])
        dets.append({f[1]: f[2] for f in (l.split() for l in lines) if f and f[0] == "det"})
    print(f"\n{w} ({runs} runs)")
    print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for m in spec["end_to_end"]:
        values = [r[m["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if runs > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("inf")
        verdict = "ok" if spread <= m["bound"] else "OVER"
        if m["name"] == "setup_s":
            verdict = "(exempt)"
        elif verdict == "OVER":
            failed = True
        print(f"  {m['name']:<18}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.3%}{m['bound']:>8.0%}  {verdict}")
    differing = sorted(k for k in dets[0] if any(d.get(k) != dets[0][k] for d in dets))
    if differing:
        failed = True
        print(f"  det counts differ between runs: {', '.join(differing)}")
    else:
        print(f"  det counts identical across runs ({len(dets[0])} counts)")
sys.exit(1 if failed else 0)
EOF
