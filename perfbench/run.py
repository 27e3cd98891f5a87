#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mlp-saturate --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (a Release CMake build of
the library sources plus the benchmark) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build is current.
Build output goes to standard error, so the benchmark's result stays the
last line of standard output. Exits non-zero without a result when the
build fails, for example outside a full checkout.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(os.getcwd(), build)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    binary = os.path.join(build, "perfbench")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", build]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
