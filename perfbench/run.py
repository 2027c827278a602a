#!/usr/bin/env python3
"""The Odyssey repository benchmark.

Builds the benchmark harness (and the library, from this checkout's
sources) in Release mode, runs one workload and prints its metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
records spans, writes a Chrome trace-event file under .bench_build/out and
reports the per-layer metrics. The exit code is non-zero when an answer is
wrong, the build fails or the configuration guard refuses the host.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
# A run must end within 180 s; the harness itself gets this long.
HARNESS_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; returns True on success."""
    steps = []
    # A configure that failed leaves no Makefile, so it is retried.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1), "--target", *targets])
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, spec, trace):
    """Returns why `line` is not a well-formed result, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last output line is not a JSON result"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if sorted(got) != sorted(expected):
        return (f"metrics {sorted(got)} do not match BENCHMARK.json "
                f"{sorted(expected)}")
    for name, metric in got.items():
        if metric.get("unit") != expected[name]:
            return f"{name}: unit {metric.get('unit')} != {expected[name]}"
        if not math.isfinite(metric.get("value", math.nan)):
            return f"{name}: value {metric.get('value')} is not finite"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the measurement-code tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    if not build(["odyssey_perfbench"]):
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "odyssey_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s and was killed")
        return 1
    *body, last = run.stdout.rstrip("\n").split("\n")
    if body:
        print("\n".join(body), flush=True)
    error = check_result(last, spec, args.trace)
    if error is None:
        print(last, flush=True)
        return run.returncode
    # Whatever the harness ended with is not a result that may be reported.
    if last and not last.startswith("{"):
        print(last, flush=True)
    log(f"{error} (harness exit code {run.returncode})")
    return run.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
