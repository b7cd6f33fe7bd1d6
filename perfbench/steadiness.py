#!/usr/bin/env python3
"""Steadiness report of the repository benchmark.

    python3 perfbench/steadiness.py --workload serve_large --runs 10
    python3 perfbench/steadiness.py --workload serve_large --runs 5 --same_seed

Runs one workload through perfbench/run.py repeatedly, each run on another
seed (or, with --same_seed, every run on the first seed), and prints for
each metric its median, first and third quartile and the spread
(Q3 - Q1) / median, using statistics.quantiles(values, n=4). Compare the
spread across seeds with the spread across repeats of one seed to see how
much of it the seed's inputs cause. Run from the repository root; extra
arguments after -- go to run.py unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness: run with seed {seed} failed "
                 f"(exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first_seed", type=int, default=101)
    parser.add_argument("--same_seed", action="store_true",
                        help="repeat the first seed instead of a new one per run")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    failed = attempted = 0
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        result = run_once(args.workload, seed, args.seconds, args.trace)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        summary = " ".join(f"{name}={metric['value']:.5g}"
                           for name, metric in result["metrics"].items())
        print(f"run {i + 1}/{args.runs} seed {seed}: failed {result['failed']}"
              f" {summary}", file=sys.stderr)

    mode = "same seed" if args.same_seed else "one seed per run"
    print(f"{args.workload}: {args.runs} runs, {mode}, "
          f"{args.seconds} s each; failed {failed} of {attempted}")
    print(f"  {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/median':>10}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:<30} {units[name]:<6} {median:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {spread:>10.3f}")


if __name__ == "__main__":
    main()
