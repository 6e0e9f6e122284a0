#!/usr/bin/env python3
"""Build and run the uHLL toolkit benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile_cold --seed 1 \
        --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (which builds the toolkit library
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
builds it, and runs the perfbench binary from the repository root with
the same arguments. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. Exits non-zero, printing no
result, when the sources are missing or the build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.relpath(os.path.join(root, build), root)
    jobs = str(min(4, os.cpu_count() or 1))

    steps = [
        ["cmake", "-S", os.path.relpath(here, root), "-B", build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1

    exe = os.path.join(root, build, "perfbench")
    cmd = [exe] + sys.argv[1:] + [
        "--kernels", os.path.relpath(os.path.join(here, "kernels"), root),
        "--out", build,
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
