#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR, default .bench_build; later calls reuse the build.
Every run first executes the harness self-tests, then the workload.

The last line of standard output is the result:
    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). On a failed build, self-test, correctness
gate or invalid measurement the script prints the reason to standard error,
no result, and exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, what):
    """Runs cmd with its output sent to stderr; fails the run on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        fail(f"{what} failed with exit code {proc.returncode}")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, "cmake configure")
    run_checked(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S, "build")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    run_checked([os.path.join(build_dir, "perfbench_selftest")], 60, "harness self-test")

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"workload exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no report")
    report = json.loads(lines[-1])

    # What the run was: the machine and the configuration.
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for key, value in sorted(report["config"].items()):
        print(f"  config {key} = {value}")
    if report["violation_count"]:
        for v in report["violations"]:
            print(f"  VIOLATION {v}", file=sys.stderr)
        fail(f"correctness gate: {report['violation_count']} violation(s)")
    if report["invalid"]:
        fail(f"invalid run: {report['invalid']}")

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the report")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        if got["value"] is None:
            fail(f"metric {m['name']} is not a finite number")
        samples = f"  ({got['samples']} samples)" if got["samples"] else ""
        print(f"  {m['name']:40s} {got['value']:.6g} {m['unit']}{samples}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": max(1, report["attempted"]),
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
