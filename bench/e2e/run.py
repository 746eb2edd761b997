#!/usr/bin/env python3
"""Builds apio_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The build goes to .bench_build/e2e (build output on standard error).
Container files go to .bench_build/run, which is removed after the run;
a traced run leaves its Chrome trace and per-layer file in
.bench_build/trace.  Standard output repeats the binary's own lines, and
its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics listed in BENCHMARK.json (--trace 0) or
the per-layer ones (--trace 1).  Exits non-zero, without a JSON line,
when the sources are missing, the build fails or the binary produces no
result; exits 1 after the JSON line when an output did not verify.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_DIR = ROOT / ".bench_build" / "run"
TRACE_DIR = ROOT / ".bench_build" / "trace"
TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no apio source tree at {ROOT}")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, **quiet)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "apio_e2e", "-j", jobs],
                   check=True, **quiet)


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse(stdout):
    metrics, check = {}, None
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            metrics[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif fields and fields[0] == "check":
            check = dict(f.split("=", 1) for f in fields[1:])
    return metrics, check


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
        names = metric_names(args.trace)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        fail(f"cannot build or read the benchmark spec: {e}")

    command = [str(BUILD / "apio_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--dir", str(RUN_DIR), "--trace-dir", str(TRACE_DIR)]
    if args.trace:
        command.append("--trace")
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"apio_e2e did not finish within {TIMEOUT_S} s")
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    sys.stdout.write(proc.stdout)

    metrics, check = parse(proc.stdout)
    missing = [n for n in names if n not in metrics]
    if check is None or missing:
        fail(f"apio_e2e exited {proc.returncode} without a full result "
             f"(missing: {', '.join(missing) or 'check line'})")
    correct = proc.returncode == 0 and check.get("ok") == "1"
    print(json.dumps({
        "correct": correct,
        "attempted": int(check["attempted"]),
        "failed": int(check["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
