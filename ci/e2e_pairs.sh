#!/usr/bin/env bash
# Paired end-to-end comparison of two commits on bench/e2e.
#
#   ci/e2e_pairs.sh PARENT CHANGE [-n PAIRS] [-w "WORKLOAD ..."] [-d DIR]
#
# Checks both commits out as detached `git worktree`s under DIR (default:
# a fresh directory from mktemp -d, outside the checkout), builds each
# one's bench/e2e into its own fresh .bench_build, then runs
# `bench/e2e/run.py --seconds S --trace 0`, with S the run_seconds of
# BENCHMARK.json (12), PAIRS times per workload on each side (defaults:
# 10 pairs, every workload in BENCHMARK.json).  A pair is one parent run
# and one change run of the same workload and seed; the side that runs
# first alternates from pair to pair, and each round runs every
# workload once.  The script only invokes run.py and changes nothing
# under bench/e2e.  It removes its worktrees on exit; run outputs stay
# in DIR/out when -d is given.
#
# For each workload and each end-to-end metric of BENCHMARK.json
# (setup_s, run_s, peak_rss_MiB, all lower-is-better) it prints both
# sides' median [q1, q3], the pairs the change won, lost and tied, and a
# verdict; then failed ops per side, and the load average before the
# first pair and after the last.
#
# The rules, for a metric whose parent runs have median P and quartiles
# q1, q3 (IQR = q3 - q1) and whose change runs have median C:
#
#   win         the change is better in at least 9 of every 10 pairs
#               (ceil(0.9 * PAIRS) pairs; a tie is not a win) AND its
#               median is better by more than the parent's IQR:
#               P - C > IQR.  Only a win supports a claimed gain.
#   regression  the change's median is worse than the parent's by more
#               than the metric's `bound` from BENCHMARK.json:
#               C > P * (1 + bound).  A change run that fails a larger
#               share of its attempted ops than the parent's runs, or a
#               run that produces no result, is a regression too.
#
# Exits 0 when no workload regresses, 1 when one does, 2 on bad usage
# or when a commit does not resolve or build.
set -euo pipefail

usage() { sed -n '4p' "$0" >&2; exit 2; }

[[ $# -ge 2 ]] || usage
cd "$(dirname "$0")/.."
repo="$(pwd)"
parent_rev="$1"
change_rev="$2"
shift 2

pairs=10
first_seed=1000
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
dir=""
while getopts "n:w:d:" opt; do
  case "$opt" in
    n) pairs="$OPTARG" ;;
    w) workloads="$OPTARG" ;;
    d) dir="$OPTARG" ;;
    *) usage ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

parent_sha="$(git rev-parse --verify "${parent_rev}^{commit}")" || exit 2
change_sha="$(git rev-parse --verify "${change_rev}^{commit}")" || exit 2

if [[ -z "$dir" ]]; then
  dir="$(mktemp -d)"
  keep_dir=0
else
  mkdir -p "$dir"
  dir="$(cd "$dir" && pwd)"
  keep_dir=1
fi
case "$dir/" in
  "$repo"/*) echo "e2e_pairs: DIR must lie outside the checkout" >&2; exit 2 ;;
esac
out="$dir/out"
rm -rf "$out"
mkdir -p "$out"

cleanup() {
  for side in parent change; do
    if [[ -d "$dir/$side" ]]; then
      git -C "$repo" worktree remove --force "$dir/$side" 2>/dev/null || rm -rf "$dir/$side"
    fi
  done
  git -C "$repo" worktree prune
  if [[ "$keep_dir" == 0 ]]; then rm -rf "$dir"; fi
}
trap cleanup EXIT

for side in parent change; do
  sha="$parent_sha"
  [[ "$side" == change ]] && sha="$change_sha"
  rm -rf "$dir/$side"
  git worktree add --detach "$dir/$side" "$sha" >/dev/null
  echo "building $side ($sha) in $dir/$side" >&2
  # A one-second run builds the side's bench/e2e into its own
  # .bench_build before any pair is timed.
  if ! python3 "$dir/$side/bench/e2e/run.py" --workload "${workloads%% *}" \
      --seed 1 --seconds 1 --trace 0 >"$out/build.$side.log" 2>&1; then
    echo "e2e_pairs: $side does not build or run; see $out/build.$side.log" >&2
    exit 2
  fi
done

load_before="$(cut -d' ' -f1-3 /proc/loadavg)"
read -r -a order <<< "$workloads"
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  sides=(parent change)
  ((i % 2 == 1)) && sides=(change parent)
  for w in "${order[@]}"; do
    for side in "${sides[@]}"; do
      echo "pair $((i + 1))/$pairs: $w seed $seed $side" >&2
      python3 "$dir/$side/bench/e2e/run.py" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$out/$w.$i.$side.out" \
        2>>"$out/stderr.log" || true
    done
  done
done
load_after="$(cut -d' ' -f1-3 /proc/loadavg)"

echo "parent $parent_sha"
echo "change $change_sha"
echo "load average before: $load_before  after: $load_after ($(nproc) cores)"
python3 - "$out" "$pairs" "$workloads" <<'EOF'
import json, math, statistics, sys
from pathlib import Path

out, pairs, workloads = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3].split()
spec = json.loads(Path("BENCHMARK.json").read_text())
need = math.ceil(0.9 * pairs)


def result(path):
    lines = path.read_text().splitlines() if path.is_file() else []
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def quartiles(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


regressed = False
for w in workloads:
    runs = {s: [result(out / f"{w}.{i}.{s}.out") for i in range(pairs)]
            for s in ("parent", "change")}
    missing = {s: sum(r is None for r in runs[s]) for s in runs}
    print(f"\n{w} ({pairs} pairs; a win needs {need} of {pairs} and a median gap > parent IQR)")
    if any(missing.values()):
        regressed = True
        print(f"  runs without a result: parent {missing['parent']}, change {missing['change']}")
        continue
    print(f"  {'metric':<14}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
          f"{'won':>5}{'lost':>5}{'tied':>5}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if m["better"] == "lower" else -1
        won = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        tied = pairs - won - lost
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        if sign * (cm - pm) > bound * abs(pm):
            verdict = f"REGRESSION (worse than {bound:.0%} of the parent median)"
            regressed = True
        elif won >= need and sign * (pm - cm) > pq3 - pq1:
            verdict = "win"
        else:
            verdict = "no difference"
        print(f"  {name:<14}{f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':>30}"
              f"{f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':>30}{won:>5}{lost:>5}{tied:>5}  {verdict}")
    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    attempted = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
    wrong = {s: sum(not r["correct"] for r in runs[s]) for s in runs}
    share = {s: failed[s] / attempted[s] if attempted[s] else 0.0 for s in runs}
    verdict = "ok"
    if share["change"] > share["parent"] or wrong["change"] > wrong["parent"]:
        verdict = "REGRESSION"
        regressed = True
    print(f"  failed ops: parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}; runs not verified: "
          f"parent {wrong['parent']}, change {wrong['change']}  {verdict}")
sys.exit(1 if regressed else 0)
EOF
