#!/usr/bin/env python3
"""Build the flow benchmark from source and run one workload.

Run from the repository root:

    python3 flowbench/run.py --workload prove --seed 1 --seconds 25 --trace 0

The first call configures and builds `flowbench` (and the `lis` library it
links) in `.bench_build/`; later calls only rebuild what changed. Build
output goes to stderr, so the last stdout line is the JSON result.

With `--trace 0` each repetition is its own `flowbench` process, so its
peak RSS is the workload's alone. Repetitions continue while another one
of median length fits in `--seconds`; each metric is the median over them,
and every repetition must produce the same work-count fingerprint. With
`--trace 1` one `flowbench` process does the whole traced run.

Exits non-zero, without a result, when the repository sources are missing
or the build fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "flowbench")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"flowbench: repository source '{needed}' not found "
                  f"under {ROOT}", file=sys.stderr)
            return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    return subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "flowbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def run_binary(args):
    """Runs flowbench; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def end_to_end(base_args, seconds):
    reps, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        code, rep = run_binary(base_args)
        if code != 0:
            return code
        reps.append(rep)
        durations.append(time.monotonic() - t0)
        print(f"rep {len(reps) - 1}: " + ", ".join(
            f"{name} {m['value']:.6g} {m['unit']}"
            for name, m in rep["metrics"].items()), flush=True)
        if (time.monotonic() - start + statistics.median(durations)
                > seconds):
            break
    fingerprints = {rep["counts"] for rep in reps}
    if len(fingerprints) > 1:
        print(f"flowbench: work counts differ across repetitions: "
              f"{sorted(fingerprints)}", file=sys.stderr)
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in reps),
               "unit": unit["unit"]}
        for name, unit in reps[0]["metrics"].items()}
    print(json.dumps({
        "correct": len(fingerprints) == 1 and all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["prove", "optimize", "simulate", "inject"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not build():
        print("flowbench: build failed", file=sys.stderr)
        return 1
    base_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--trace", args.trace]
    if args.trace == "1":
        code, result = run_binary(base_args)
        if code == 0:
            print(json.dumps(result))
        return code
    return end_to_end(base_args, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
