#!/usr/bin/env python3
"""Paper-session benchmark for Neptune: one workload, one seed.

    python3 bench_e2e/run.py --workload browse|author|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. Builds the Neptune library, the stock
`neptune_server` and the load generator from source into `.bench_build/`
(first run only; later runs rebuild incrementally), then runs the
generator, which starts the server, drives it over TCP, checks every
output and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, after a table of them, and the spans of the first traced
actions are written as Chrome-trace JSON under `.bench_build/traces/`.
See bench_e2e/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("browse", "author", "mixed")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "bench_e2e"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    try:
        cmake_dir = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [
        os.path.join(cmake_dir, "neptune_e2e"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(cmake_dir, "neptune_server"),
        "--work", work,
    ]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        # Pass on the diagnostics, never a result line.
        for line in lines:
            if not line.startswith("{"):
                print(line, file=sys.stderr)
        print(f"benchmark run failed (exit {result.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
