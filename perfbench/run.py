#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of larserved.

One workload:

    python3 perfbench/run.py --workload feasible_hot --seed 1 --seconds 10 --trace 0

prints a readable report and, as its last line, one JSON object with the
keys correct / attempted / failed / metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload end to end and traced, and prints all metrics by name
with their units. --smoke does the same with a handful of requests per
workload instead of a timed window, and checks that every metric is
emitted with its unit.

The first call builds larserved and perfbench_driver from the repository's
sources into .bench_build/ (CMake, RelWithDebInfo); later calls only
rebuild what changed. Exit status is 0 only when every answer was correct.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_DIR = BUILD / "run"

# Workloads and metric names/units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runnable, and covered by --all and --smoke, but not in BENCHMARK.json:
# its spreads were the widest of the three, and a third workload at the
# run length the others need would not fit a steadiness check's time
# (see README.md).
EXTRA_WORKLOADS = ["session_ask"]
ALL_WORKLOADS = WORKLOADS + EXTRA_WORKLOADS

# A run normally takes --seconds plus ~5 s; this only guards against a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds larserved + perfbench_driver; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "larserved", "perfbench_driver"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    return True


def run_driver(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, report lines, result dict|None)."""
    cmd = [str(BUILD / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--larserved", str(BUILD / "larserved"),
           "--run-dir", str(RUN_DIR)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 2, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return proc.returncode, lines, result


def check_names(result, trace):
    """Problems with the metric names/units of one result."""
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name] != unit:
            problems.append(f"{name} has unit {got[name]}, expected {unit}")
    problems += [f"unexpected metric {n}" for n in got if n not in want]
    return problems


def run_all(seed, seconds, smoke):
    ok = True
    for trace in (0, 1):
        for workload in ALL_WORKLOADS:
            code, lines, result = run_driver(workload, seed, seconds, trace,
                                             smoke)
            print("\n".join(lines))
            if result is None:
                print(f"  {workload} trace={trace}: no result (exit {code})")
                ok = False
                continue
            problems = check_names(result, trace)
            for p in problems:
                print(f"  FAILED {p}")
            if code != 0 or problems or not result["correct"]:
                ok = False
            print(f"  result: {json.dumps(result)}", flush=True)
    print("all workloads correct" if ok else "FAILURES above")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, end to end and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="like --all, with a few requests per workload")
    args = ap.parse_args()
    if not args.all and not args.smoke and args.workload is None:
        ap.error("give --workload, --all or --smoke")

    if not build():
        return 2
    if args.all or args.smoke:
        return run_all(args.seed, args.seconds, args.smoke)
    code, lines, result = run_driver(args.workload, args.seed, args.seconds,
                                     args.trace)
    if result is None:
        return code or 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
