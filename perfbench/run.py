#!/usr/bin/env python3
"""Builds the perfbench runner from this checkout's sources and runs one
workload of it.

    python3 perfbench/run.py --workload fig1-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally); build output goes to
stderr, so the last line of stdout is the runner's result object. Exits
non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "3"


def build():
    """Configures (once) and builds the runner; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS],
                          stdout=sys.stderr).returncode == 0


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    runner = os.path.join(BUILD, "perfbench")
    return subprocess.run([runner] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
