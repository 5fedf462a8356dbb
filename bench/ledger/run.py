#!/usr/bin/env python3
"""The performance ledger: one command, every workload, one JSON result.

Builds a Release uhscm_ledger from this directory's CMake project (which
builds the repository itself as a subdirectory) into build/ledger/, then
runs workloads as separate processes.

One run of one workload (the form the result contract is defined on):

    python3 bench/ledger/run.py --workload serve-hot --seed 3 --seconds 20 --trace 0

prints, as its last stdout line, {"correct", "attempted", "failed",
"metrics"}: every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1 (0 for a layer the workload leaves
idle). The binary's full record goes to stderr.

The whole ledger for one seed:

    python3 bench/ledger/run.py --seed=1 [--out=FILE]

runs every workload untraced and then traced and writes all records to
FILE (default build/ledger/results/ledger-seed<N>.json). compare.py
compares two sets of such files.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, "build", "ledger")
BINARY = os.path.join(BUILD_DIR, "uhscm_ledger")
WORK_DIR = os.path.join(BUILD_DIR, "work")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "uhscm_ledger", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_workload(name, seed, seconds, trace):
    """Runs one workload in its own process; returns its full record."""
    cmd = [BINARY, "--workload=" + name, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--work-dir=" + WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %ds" % (name, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (name, proc.returncode))
    if proc.returncode != 0 and record.get("failed", 0) == 0:
        fail("%s exited %d" % (name, proc.returncode))
    return record


def contract_line(spec, record):
    """The result contract's object for one record, checked against the
    metric lists of BENCHMARK.json."""
    traced = record["trace"] == 1
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    measured = record["layers"] if traced else record["e2e"]
    known = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - known)
    if unknown:
        fail("%s reported metrics not in BENCHMARK.json: %s"
             % (record["workload"], ", ".join(unknown)))
    metrics = {}
    for m in wanted:
        if m["name"] not in measured and not traced:
            fail("%s did not report %s" % (record["workload"], m["name"]))
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0),
                              "unit": m["unit"]}
    return {"correct": record["correct"] and record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="ledger file (whole-ledger mode)")
    args = parser.parse_args()

    build()
    if args.workload:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(record), file=sys.stderr)
        line = contract_line(spec, record)
        print(json.dumps(line))
        sys.exit(0 if line["correct"] else 1)

    records = []
    for name in names:
        for trace in (0, 1):
            start = time.time()
            record = run_workload(name, args.seed, args.seconds, trace)
            record["wall_s"] = time.time() - start
            contract_line(spec, record)  # validates the metric lists
            records.append(record)
            print("%-12s trace=%d %5.1fs failed=%d %s" % (
                name, trace, record["wall_s"], record["failed"],
                json.dumps(record["layers"] if trace else record["e2e"])),
                file=sys.stderr)
    ledger = {"seed": args.seed, "seconds": args.seconds,
              "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
              "runs": records}
    out = args.out or os.path.join(BUILD_DIR, "results",
                                   "ledger-seed%d.json" % args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"ledger": out, "correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
