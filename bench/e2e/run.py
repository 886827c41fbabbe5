#!/usr/bin/env python3
"""Builds vsd_e2e from this checkout, then runs it with the given arguments.

    python3 bench/e2e/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The build directory is build-e2e/ at the checkout root: configured on every
call (a no-op once cached) and rebuilt incrementally. Build output goes to
stderr, so the last line on stdout is vsd_e2e's JSON result. Outside a full
checkout the configure step fails and this script exits 1 without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("run.py: failed: " + " ".join(cmd))


def main():
    step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD, "-j", "4"])
    exe = os.path.join(BUILD, "vsd_e2e")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
