#!/usr/bin/env python3
"""Entry point of the repository benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload predict_cli|serve_mixed|train_cap \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `paragraph` CLI and the e2ebench
harness from source into .bench_build/e2ebench (Release, the repository's
own flags), then runs the harness. Build output goes to stderr; the last
stdout line is the harness's JSON result. Exits non-zero, printing no
result, when the sources or the build are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "e2ebench")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: the paragraph sources are not beside e2ebench/\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "--target", "paragraph", "e2ebench", "-j", JOBS],
        stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0


def main():
    if not build():
        sys.stderr.write("e2ebench: build failed\n")
        return 2
    harness = os.path.join(BUILD, "e2ebench")
    cli = os.path.join(BUILD, "paragraph", "tools", "paragraph")
    proc = subprocess.Popen(
        [harness] + sys.argv[1:] + ["--paragraph", cli, "--work-root", BUILD])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
