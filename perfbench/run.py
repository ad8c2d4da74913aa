#!/usr/bin/env python3
"""Build the program and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments are passed unchanged to perfbench.exe (see README.md in this
directory). Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

TARGETS = ["./bin/genalg.exe", "./perfbench/perfbench.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the repository root "
              "(dune-project, lib/ and bin/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                               env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
