#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one build agree?

    python3 perfbench/steadiness.py [--runs 10] [--seconds 10]
                                    [--workloads feasible_hot,...]

Runs each workload end to end --runs times per set, two sets, every run
with a different seed, and prints for each (workload, metric) both sets'
median and IQR (interquartile range as a share of the median, quartiles as
statistics.quantiles(n=4) gives them), and whether

  * spread: each set's IQR share is within the metric's bound in
    BENCHMARK.json (setup_s is exempt), and
  * agree:  the second set's median is no worse than the first's by more
    than the bound.

The target is a spread below a third of the bound. Figures a report
prints as "(not gated)" are listed after the table with their medians and
IQRs only. Exit status 1 when any gated row fails either test.
"""

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own runner)


def iqr_share(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def ungated(report_lines):
    """(name, value) of the figures a report prints as "(not gated)"."""
    for line in report_lines:
        if line.endswith("(not gated)"):
            fields = line.split()
            yield fields[0], float(fields[1])


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def assess(sets, metrics):
    """Rows (workload, metric, [(median, iqr)...], spread_ok, agree_ok)."""
    rows = []
    for workload in sets[0]:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [s[workload][name] for s in sets]
            stats = [(statistics.median(v), iqr_share(v)) for v in per_set]
            spread_ok = name == "setup_s" or all(i <= bound for _, i in stats)
            agree_ok = worse_by(stats[0][0], stats[1][0], m["better"]) <= bound
            rows.append((workload, name, stats, spread_ok, agree_ok))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")

    spec = run.SPEC
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    if not run.build():
        return 2

    sets = []
    for s in range(2):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]}
                  for w in workloads}
        for w in workloads:
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i
                code, lines, result = run.run_driver(w, seed, seconds, 0)
                if result is None or code != 0 or not result["correct"]:
                    print(f"{w} seed {seed}: run failed (exit {code})")
                    return 1
                for name, v in result["metrics"].items():
                    values[w][name].append(v["value"])
                for name, value in ungated(lines):
                    values[w].setdefault(name, []).append(value)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
        sets.append(values)

    ok = True
    print(f"\n{'workload':<14} {'metric':<17} {'bound':>5}  "
          f"{'median 1':>10} {'IQR 1':>6}  {'median 2':>10} {'IQR 2':>6}  "
          "spread agree")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, name, stats, spread_ok, agree_ok in assess(
            sets, spec["end_to_end"]):
        ok = ok and spread_ok and agree_ok
        (m1, i1), (m2, i2) = stats
        print(f"{workload:<14} {name:<17} {bounds[name]:>5.2f}  "
              f"{m1:>10.4f} {i1:>6.1%}  {m2:>10.4f} {i2:>6.1%}  "
              f"{'ok' if spread_ok else 'WIDE':>6} "
              f"{'ok' if agree_ok else 'NO':>5}")
    gated = set(bounds)
    for workload in workloads:
        for name in sets[0][workload]:
            if name in gated:
                continue
            (m1, i1), (m2, i2) = [
                (statistics.median(s[workload][name]),
                 iqr_share(s[workload][name])) for s in sets]
            print(f"{workload:<14} {name:<17} {'-':>5}  "
                  f"{m1:>10.4f} {i1:>6.1%}  {m2:>10.4f} {i2:>6.1%}  "
                  "(not gated)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
