#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload compile|call --seed N \
        --seconds S --trace 0|1

Each run configures and builds perfbench/CMakeLists.txt (the Porcupine
libraries plus the perfbench binary, Release) into .bench_build/perfbench;
after the first run that is a quick up-to-date check. The binary
measures the workload; this script keeps the metrics BENCHMARK.json lists
for the mode (end_to_end with --trace 0, per_layer with --trace 1), checks
that each is present with its declared unit, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of stdout. Build output and the workload's own tables go
to stderr. Traced runs also write .bench_build/trace/<workload>-seed<N>
.trace.json (Chrome trace-event format; open it in Perfetto) and
.selftime.txt. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(argv, timeout):
    """Runs argv with its stdout sent to our stderr; dies on failure."""
    try:
        done = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("%s: %s" % (argv[0], err))
    if done.returncode != 0:
        die("%s exited with %d" % (" ".join(argv), done.returncode))


def build():
    run_quiet(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", "4"], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        die("cannot read BENCHMARK.json: %s" % err)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die("unknown workload '%s'" % args.workload)
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--out-dir", TRACE_DIR]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("perfbench: %s" % err)
    if done.returncode != 0:
        die("perfbench exited with %d" % done.returncode)
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        die("no result from perfbench: %s" % err)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            die("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s has unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if result["attempted"] < 1:
        die("nothing was attempted")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
