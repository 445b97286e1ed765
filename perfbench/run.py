#!/usr/bin/env python3
"""Build and run the Coign benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload suite|plan|adapt|load \
        --seed N --seconds S --trace 0|1

The benchmark is the OCaml program perfbench/main.ml. This wrapper builds
it with dune (release profile, shared cache off, so nothing is written
outside the checkout), then runs it with the same arguments. Build output
goes to standard error; the program's last line of standard output is the
JSON result. The exit code is the program's, or 2 when the checkout holds
no buildable source tree.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a Coign checkout (dune-project and lib/ "
              "not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
