#!/usr/bin/env python3
"""Build and run the hoiho benchmark.

    python3 perfbench/run.py --workload {learn_L|relearn_delta|serve_mixed} \
        --seed N --seconds S --trace {0|1} [--out FILE]

Run from the root of a checkout. The first call configures and builds the
harness and hoihod from the checkout's sources into .bench_build (or
$CARGO_TARGET_DIR when set) as a Release build; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. Exits non-zero, printing no result, when the sources
are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: no hoiho sources next to %s" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench", "hoihod"],
        check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    binary = os.path.join(build_dir, "perfbench")
    # The harness validates the arguments itself and rejects anything else.
    result = subprocess.run([binary] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
