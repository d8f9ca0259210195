#!/usr/bin/env python3
"""Build and run the end-to-end FASTQ -> SAM mapping benchmark.

    python3 mapbench/run.py --workload short_simd --seed 1 --seconds 10 --trace 0

Configures and builds mapbench/ (the saloba library from the repository root
plus the mapbench harness, Release) under $CARGO_TARGET_DIR, or .bench_build
at the repository root when that is unset, then runs the harness. The
harness's last line of stdout is the result JSON; build output goes to
stderr. With --trace 1 the per-layer spans are also written as Chrome
trace-event JSON next to the binary (trace_<workload>_<seed>.json).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("short_simd", "short_sharded", "ultralong")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "mapbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "mapbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.path.dirname(HERE),
                                                                ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "mapbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"mapbench build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--trace-out={build_dir}/trace_{args.workload}_{args.seed}.json")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"mapbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
