#!/usr/bin/env python3
"""Builds qcap_perfbench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload plan-scale|serve-tpcapp|day-adaptive \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench
(Release); build output goes to stderr. The output of qcap_perfbench passes
through unchanged: host fingerprint, gate notes, and as the last line the
JSON result {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
without a result line, when the build, the run or the result is broken.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qcap_perfbench")
WORKLOADS = ("plan-scale", "serve-tpcapp", "day-adaptive")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "qcap_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            raise ValueError("metric %s missing or in the wrong unit"
                             % metric["name"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("perfbench: qcap_perfbench exited %d" % run.returncode, file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, OSError) as error:
        sys.stderr.write(run.stdout)
        print("perfbench: bad result: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
