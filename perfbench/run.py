#!/usr/bin/env python3
"""Build the cyclic-workload benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny]

Configures and builds perfbench/ (Release) under $CARGO_TARGET_DIR, or
.bench_build at the repository root when that is unset, runs the cycbench
driver, prints its full report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the run's Chrome trace is written next to the
binary. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within this many seconds, build included.
RUN_LIMIT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "cycbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(bdir, "cycbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    start = time.monotonic()
    if not os.path.exists(os.path.join(ROOT, "src", "array", "array.h")):
        log(f"no arraydb sources under {ROOT}; nothing to benchmark")
        return 2
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1

    trace_out = os.path.join(
        bdir, f"trace-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--trace-out", trace_out]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("cycbench did not finish in time")
        return 1
    if done.returncode != 0:
        log(f"cycbench exited with {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("cycbench printed no report")
        return 1
    report = json.loads(lines[-1])

    section = report["per_layer" if args.trace else "end_to_end"]
    if args.size == "full":
        thin = [n for n, m in section.items() if not m["supported"]]
        if thin:
            log("percentiles with fewer than 10 samples beyond them: "
                + ", ".join(thin))
            return 1
    print(json.dumps(report))
    if args.trace:
        print(f"trace: {trace_out}")
    for flag in report["flags"]:
        log(f"WARNING {flag}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in section.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
