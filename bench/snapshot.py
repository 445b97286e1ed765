#!/usr/bin/env python3
"""Write a perfbench snapshot, the BENCH_<n>.json that bench/trajectory compares.

    python3 bench/snapshot.py [--seconds S] > BENCH_<n>.json

Run from the repository root. Runs perfbench/steady.py over every workload
in BENCHMARK.json on seeds 1 and 20261016, twice: untraced (--trace 0) for
the end-to-end metrics and traced (--trace 1) for the per-layer ones, and
prints both reports nested in one JSON object. Each metric keeps steady.py's
median and quartile spread (iqr_frac) per workload. S defaults to
BENCHMARK.json's run_seconds. steady.py's progress goes to standard error;
a failed benchmark run stops the script with a non-zero exit.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "coign-perfbench-snapshot/1"
SEEDS = [1, 20261016]
STEADY = os.path.join("perfbench", "steady.py")


def steady(workloads, seconds, trace):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run(
            [sys.executable, STEADY, "--workloads", ",".join(workloads), "--seeds",
             ",".join(map(str, SEEDS)), "--seconds", str(seconds), "--trace", str(trace),
             "--json", out],
            stdout=sys.stderr, check=True)
        with open(out) as f:
            return json.load(f)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    snapshot = {
        "schema": SCHEMA,
        "seeds": SEEDS,
        "seconds": args.seconds,
        "end_to_end": steady(workloads, args.seconds, 0),
        "per_layer": steady(workloads, args.seconds, 1),
    }
    json.dump(snapshot, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit(e.returncode)
