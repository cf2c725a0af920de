#!/usr/bin/env python3
"""Run one workload of the HILOS simulator benchmark and print its result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. On first use the driver (perfbench/driver.cc
linked against the library built from src/) is configured and built with
CMake in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild only what changed. Build output goes to stderr.
The last line of stdout is the driver's JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
BENCHMARK.json at the repository root lists both and the workloads. A
failed build or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure until the driver first builds, then keep it up to date."""
    driver = os.path.join(build_dir, "perfbench_driver")
    if not os.path.exists(driver):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=120)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=600)
    return driver


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        driver = build(build_dir)
        run = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=args.seconds + 100)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: driver printed no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
