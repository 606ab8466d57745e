#!/usr/bin/env python3
"""Builds the advisor service benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ (incremental after the first run). The
benchmark binary prints its metrics and, as its last line, the result
object {"correct", "attempted", "failed", "metrics"}; this script relays
that output, checks the result line, and exits nonzero without a result
when the build or the run fails. Traced runs write their spans to
.bench_build/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_het", "interactive", "tenant_churn")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "CMakeLists.txt")):
        fail("the advisor sources are not next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd, BUILD_TIMEOUT_S)
    run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run timed out")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a result object")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
