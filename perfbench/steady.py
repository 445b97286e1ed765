#!/usr/bin/env python3
"""Measure how steady the benchmark is: run it on several seeds and report,
for every metric, the median of the runs and the distance between the first
and third quartile as a share of that median.

    python3 perfbench/steady.py [--workloads suite,plan] [--seeds 1,2,...]
        [--seconds 10] [--trace 0] [--json OUT]

Run from the repository root. Quartiles are Python's
statistics.quantiles(values, n=4), the same figures a bound in
BENCHMARK.json is checked against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="suite,plan,adapt,load")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {}
    for w in args.workloads.split(","):
        values = {}
        for seed in seeds:
            res = run_once(w, seed, args.seconds, args.trace)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            rows[name] = {"median": med, "iqr_frac": (q3 - q1) / abs(med) if med else None,
                          "min": min(vs), "max": max(vs)}
            spread = rows[name]["iqr_frac"]
            print(f"{w:6s} {name:36s} median {med:14.6g}  iqr/median "
                  f"{'-' if spread is None else f'{spread:.4f}'}", flush=True)
        report[w] = {"seeds": seeds, "seconds": args.seconds, "metrics": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
