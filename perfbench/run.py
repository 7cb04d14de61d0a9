#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload topk_live --seed 7 --seconds 10 --trace 0

The first run configures and compiles the engine sources and the benchmark
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Every run executes the benchmark's self-test
before measuring. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
build or the self-test fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("topk_saturated", "topk_live", "airline_scalein")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, env, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(build_dir):
    env = dict(os.environ)
    # Keep compiler temporaries inside the build tree.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs], env,
                     BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if not run_quiet([os.path.join(build_dir, "perfbench_selftest")], None, 120):
        print("perfbench: self-test failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, f"trace_{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        print("perfbench: no output", file=sys.stderr)
        return 5
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 5
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
