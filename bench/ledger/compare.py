#!/usr/bin/env python3
"""Compares two sets of ledger files, one row per (workload, e2e metric).

    python3 bench/ledger/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a whole-ledger result of run.py (one seed). The i-th base
file is paired with the i-th new file; run the pairs alternating which
side goes first. Verdicts, with each metric's bound from BENCHMARK.json:

  better      the new side wins at least 9 of 10 pairs (ties count for
              neither), the medians differ by more than the base side's
              interquartile distance, and no more operations failed
  worse       the new median is worse than the base median by more than
              the bound
  unresolved  the run-to-run spread (interquartile distance over median,
              either side) is wider than the bound, and not every new run
              beats every base run
  same        otherwise

Exits 1 when any row is worse.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(paths):
    """{(workload, metric): [value per file]} and total failed operations."""
    values, failed = {}, 0
    for path in paths:
        with open(path) as f:
            ledger = json.load(f)
        for run in ledger["runs"]:
            failed += run["failed"]
            if run["trace"] == 0:
                for name, value in run["e2e"].items():
                    values.setdefault((run["workload"], name), []).append(value)
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, higher_better, bound, more_failures):
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = min(new) > max(base) if higher_better else max(new) < min(base)
    b_med, n_med = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    if max(spread(base), spread(new)) > bound:
        return ("better" if all_better and not more_failures else "unresolved"), wins
    if wins >= 0.9 * len(pairs) and abs(n_med - b_med) > q3 - q1 and not more_failures:
        return "better", wins
    if sign * (n_med - b_med) / abs(b_med) < -bound:
        return "worse", wins
    return "same", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, base_failed = load_runs(args.base)
    new, new_failed = load_runs(args.new)

    header = "%-12s %-10s %28s %28s %8s %5s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "wins", "verdict")
    print(header)
    print("-" * len(header))
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                print("%-12s %-10s missing from %s" % (
                    workload, metric["name"], "base" if key not in base else "new"))
                continue
            b, n = base[key], new[key]
            v, wins = verdict(b, n, metric["better"] == "higher", metric["bound"],
                              new_failed > base_failed)
            any_worse |= v == "worse"
            b_med, n_med = statistics.median(b), statistics.median(n)
            print("%-12s %-10s %28s %28s %+7.1f%% %2d/%-2d  %s (bound %g%%)" % (
                workload, metric["name"],
                "%.4g [%.4g, %.4g]" % ((b_med,) + quartiles(b)),
                "%.4g [%.4g, %.4g]" % ((n_med,) + quartiles(n)),
                100.0 * (n_med - b_med) / abs(b_med), wins, min(len(b), len(n)),
                v, 100.0 * metric["bound"]))
    print("failed operations: base %d, new %d" % (base_failed, new_failed))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
