#!/usr/bin/env python3
"""Builds the serving benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <interactive|churn|sharded-batch> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/perfbench
(an incremental no-op after the first run); each run works in its own
directory under .bench_build/runs, removed when the run ends. Traced runs
leave their span file at .bench_build/runs/trace-<workload>-<seed>.json.
The last line of standard output is the benchmark's JSON result; build
output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interactive", "churn", "sharded-batch")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def configured_here(build_dir):
    """True when build_dir holds a CMake cache made for this directory."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            return f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in cache
    except OSError:
        return False


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) are missing from this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not configured_here(build_dir):
        shutil.rmtree(build_dir, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "cod_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    # Compilers and the benchmark keep their temporary files in the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp

    binary = build(os.path.join(ROOT, ".bench_build", "perfbench"))
    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--dir", run_dir],
            timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code if code >= 0 else 4)


if __name__ == "__main__":
    main()
