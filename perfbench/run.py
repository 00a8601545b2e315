#!/usr/bin/env python3
"""The repository benchmark: builds the mrs library and the perfbench harness
from source, then runs one workload.

    python3 perfbench/run.py --workload serve|batch|optimize --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; the harness writes its scratch files
(set-up inputs, span dumps) there too. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end set (--trace 0) or its per_layer set
(--trace 1). The exit code is 0 only for a correct run. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures and builds the harness once per checkout (serialized)."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "mrsbench"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "mrsbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["serve", "batch", "optimize"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload or --selftest is required")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        exe = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    if args.selftest:
        sys.exit(subprocess.run([exe, "selftest"], timeout=RUN_TIMEOUT_S)
                 .returncode)

    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [exe, "run", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", workdir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the harness printed no result line")
    want = expected_metrics(root, args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, "
             f"want {sorted(want)}")
    print(lines[-1])
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"]:
        print(f"perfbench: {args.workload} run was not correct "
              f"(exit {done.returncode})", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
