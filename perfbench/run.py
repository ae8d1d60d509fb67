#!/usr/bin/env python3
"""Build the layered benchmark from source and run one workload.

Run from the root of a hextile checkout:

    python3 perfbench/run.py --workload serve-mixed --seed 7 --seconds 15 --trace 0

`--workload all` runs every workload in turn, each in its own process.
The last line of standard output is the run's JSON result (see
perfbench/README.md); the exit code is non-zero when the checkout cannot
be built or a correctness check failed.
"""

import os
import subprocess
import sys

WORKLOADS = ["table1-schemes", "paper-analytic", "serve-mixed"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    """Build the benchmark and the libraries it links; False on failure."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a hextile checkout",
                  file=sys.stderr)
            return False
    try:
        # The shared dune cache lives outside the checkout; keep the build
        # inside it.
        done = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                               "./perfbench/main.exe"],
                              stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    if not build():
        return 2
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            worst = 0
            for w in WORKLOADS:
                args = argv[:i + 1] + [w] + argv[i + 2:]
                worst = max(worst, subprocess.run([EXE] + args).returncode)
            return worst
    return subprocess.run([EXE] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
