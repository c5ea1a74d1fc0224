#!/usr/bin/env python3
"""The benchmark's own test: a seconds-long smoke run of every workload.

    python3 perfbench/smoke_test.py

Run from the root of a source checkout. For each workload it runs the
benchmark in smoke mode untraced and traced, and checks that the result
line is well formed, that no operation failed, and that every metric named
in BENCHMARK.json is printed with its unit. It then runs once with a
deliberately wrong reference checksum and checks that the mismatch is
counted as a failed operation. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if out.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL: result keys {sorted(result)}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"FAIL: {workload} trace {trace}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    sys.exit(f"FAIL: {workload} trace {trace}: metric {metric['name']} "
                             f"missing or not in {metric['unit']}: {got}")
            print(f"ok   {workload} trace {trace}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")

    result = run("service_mix", 0, "--corrupt-reference")
    if result["correct"] or result["failed"] < 1:
        sys.exit("FAIL: a wrong reference checksum was not counted as a failed operation")
    print(f"ok   wrong reference checksum counted: {result['failed']} failed operations")


if __name__ == "__main__":
    main()
