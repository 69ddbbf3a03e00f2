#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs run.py on each workload with
several seeds and reports, per end-to-end metric, the spread between the
first and third quartile of the runs as a share of their median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root. A spread at or above the bound marks the
metric NOISY; the aim is below a third of the bound (marked "ok"). Exits
non-zero if any run fails or is incorrect, or any spread reaches its bound."""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, proc.returncode))
                bad = True
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: %d of %d checks failed"
                      % (workload, seed, result["failed"], result["attempted"]))
                bad = True
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {n: round(e["value"], 4) for n, e in result["metrics"].items()})),
                flush=True)
        for name, xs in values.items():
            if len(xs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("ok" if spread < bounds[name] / 3 else
                       "wide" if spread < bounds[name] else "NOISY")
            if spread >= bounds[name]:
                bad = True
            print("  %-16s %-20s median %-12.6g spread %.4f bound %.2f %s"
                  % (workload, name, med, spread, bounds[name], verdict),
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
