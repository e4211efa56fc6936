#!/usr/bin/env python3
"""Builds and runs the host wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {grid,replan,serve} --seed N \
        --seconds S --trace {0,1}

The first call configures and builds perfbench/ (the library sources
under src/ plus the benchmark binary) in Release mode under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls rebuild incrementally. For `grid`, the repository's
bench_headline_summary is run once at seed 1 (its output is cached beside
the build) as the reference the grid's savings band must match. The last
line of stdout is the benchmark's JSON result; build output goes to
stderr. Any failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid", "replan", "serve")
POOL_THREADS = 2  # matches the benchmark's pool size
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails on a non-zero exit."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"{cmd[0]}: {err}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)


def headline_reference(build_dir):
    """bench_headline_summary's output at the grid's data-set seed, 1."""
    path = os.path.join(build_dir, "headline_seed1.txt")
    if os.path.exists(path):
        return path
    try:
        done = subprocess.run(
            [os.path.join(build_dir, "headline_reference"),
             f"--threads={POOL_THREADS}", "--seed=1"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"headline_reference: {err}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"headline_reference exited with {done.returncode}")
    with open(path + ".tmp", "w", encoding="utf-8") as out:
        out.write(done.stdout)
    os.replace(path + ".tmp", path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "grid":
        cmd += ["--reference", headline_reference(build_dir)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans_{args.workload}_seed{args.seed}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"perfbench: {err}")
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no JSON result")
    if not isinstance(result, dict) or "metrics" not in result:
        fail("perfbench's last line is not a result object")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
