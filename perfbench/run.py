#!/usr/bin/env python3
"""Build and run the amsvp repository benchmark.

    python3 perfbench/run.py --workload <vp_rc20|sweep_wide|service_mix>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--corrupt-reference]

Run from the root of a source checkout. The first run configures and
builds the library and the benchmark (Release) under $CARGO_TARGET_DIR,
default .bench_build; later runs only re-check the build. Build output
goes to stderr. The benchmark's stdout is passed through: its last line is
the JSON result {"correct", "attempted", "failed", "metrics"}. Traced runs
write their per-layer JSON and Chrome trace under <build dir>/traces.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("vp_rc20", "sweep_wide", "service_mix")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(directory):
    """Configure (once) and build the benchmark; returns the executable path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(directory, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target", "amsvp_perfbench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(directory, "amsvp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run of every surface (the benchmark's own test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="make one reference checksum wrong; it must count as a failure")
    args = parser.parse_args()

    directory = build_dir()
    exe = build(directory)
    traces = os.path.join(directory, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out-dir", traces]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
