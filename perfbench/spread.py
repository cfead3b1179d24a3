#!/usr/bin/env python3
"""Spread report: run one workload k times and print each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload call [--runs 10] [--trace 0|1]

Runs perfbench/run.py with seeds 1..runs for BENCHMARK.json's run_seconds,
then prints, for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median. For
end-to-end metrics it also prints the bound from BENCHMARK.json and marks
a spread at or above a third of the bound. Use it to set bounds and to
check them; with --trace 1 it shows which per-layer counts repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
        if done.returncode != 0:
            sys.exit("spread.py: run with seed %d failed" % seed)
        result = json.loads(done.stdout.decode().strip().splitlines()[-1])
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d %s"
              % (seed, result["correct"], result["attempted"],
                 result["failed"],
                 json.dumps({k: v["value"]
                             for k, v in result["metrics"].items()})),
              file=sys.stderr)

    print("%-44s %14s %14s %14s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        if q3 == q1:
            spread = 0.0
        else:
            spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <- at or above a third of the bound"
        print("%-44s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
