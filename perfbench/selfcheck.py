#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes (a few seconds per workload).

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs perfbench/run.py with
--size tiny, untraced and traced, and asserts that:

  * every end-to-end and per-layer metric named in BENCHMARK.json is
    emitted, with the unit BENCHMARK.json gives it and a sample count;
  * no operation failed (error_rate is 0) and the result is correct;
  * the traced run's Chrome trace passes ci/check_trace.py;
  * phase.unattributed_share is below 0.05.

Exits non-zero on the first workload that fails a check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(json.loads(line) for line in lines
                  if line.startswith("{") and "fingerprint" in line)
    trace_path = next((line.split(": ", 1)[1] for line in lines
                       if line.startswith("trace: ")), None)
    return result, report, trace_path


def check_metrics(workload, expected, result, section):
    for metric in expected:
        name = metric["name"]
        got = result["metrics"].get(name)
        assert got is not None, f"{workload}: {name} missing"
        assert got["unit"] == metric["unit"], (
            f"{workload}: {name} unit {got['unit']} != {metric['unit']}")
        assert section[name]["samples"] >= 1, (
            f"{workload}: {name} has no sample count")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result, report, trace_path = run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (
                f"{workload}: {result['failed']} failed operations")
            assert report["error_rate"] == 0.0, f"{workload}: error_rate"
            if trace == 0:
                check_metrics(workload, bench["end_to_end"], result,
                              report["end_to_end"])
                continue
            check_metrics(workload, bench["per_layer"], result,
                          report["per_layer"])
            share = result["metrics"]["phase.unattributed_share"]["value"]
            assert share < 0.05, f"{workload}: unattributed share {share}"
            checked = subprocess.run(
                [sys.executable, os.path.join(ROOT, "ci", "check_trace.py"),
                 trace_path], stdout=subprocess.PIPE, text=True)
            assert checked.returncode == 0, (
                f"{workload}: trace check failed\n{checked.stdout}")
        print(f"OK {workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"FAIL {error}")
        sys.exit(1)
