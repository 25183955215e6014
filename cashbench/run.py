#!/usr/bin/env python3
"""Build cashbench from the checked-out source, then run one workload.

Run from the repository root:

    python3 cashbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The CASH library (src/) and the benchmark driver are configured and
built into .bench_build/cashbench (an incremental build after the
first run); build output goes to stderr.  The benchmark's own output,
whose last line is the result JSON, is passed through unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cashbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("cashbench: no CASH sources at %s/src; run from a "
                 "checkout of the repository" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "cashbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("cashbench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(BUILD, "cashbench")] + sys.argv[1:],
                          cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
