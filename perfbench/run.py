#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build output goes to stderr; the benchmark's own output, whose last
line is the JSON result, goes to stdout. Exits non-zero without a result
when the build or the run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    # the shared dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=850,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
