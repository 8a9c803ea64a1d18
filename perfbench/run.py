#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build|query|slice --seed N \
        --seconds S --trace 0|1

The first run configures and builds `perfbench/` (which compiles the
libraries under `src/`) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset; later runs only re-check the build. Build output
goes to standard error, so the last line of standard output is the
driver's JSON result. Exits non-zero without a result if the sources
are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wetperf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: repository sources not found\n")
        return 1
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(build_dir, "wetperf")
    return subprocess.call([exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
