#!/usr/bin/env python3
"""Builds and runs the UDT loopback benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paced_1456 --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the benchmark from
source into .bench_build/perfbench (later runs rebuild only what changed),
then runs the arithmetic self-test and the benchmark.  Build output goes to
stderr; the benchmark's stdout passes through unchanged, so the last line
is its JSON result.  The exit status is the benchmark's (non-zero when any
operation failed or the build could not run).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(BUILD, "run")
# One run measures --seconds (twice half of it when traced) plus set-up,
# warm-up and teardown; anything near this limit is a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "udt", "socket.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    log = sys.stderr
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release", *gen],
                          stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                      stdout=log, stderr=log).returncode != 0:
        fail("arithmetic self-test failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
