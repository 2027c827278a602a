#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                               [--record perfbench/trajectory.json --label L]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json. A spread above a third of the bound is flagged: the
benchmark is meant to stay well inside its bounds. --record appends the
summary, with the host fingerprint, to a trajectory file.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("fingerprint ")), None)
    if run.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {run.returncode}")
    return json.loads(lines[-1]), fingerprint


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="trajectory JSON file to append to")
    parser.add_argument("--label", default="", help="trajectory entry label")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    entry = {"label": args.label,
             "date": datetime.date.today().isoformat(),
             "seeds": args.seeds, "run_seconds": args.seconds,
             "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in parse_seeds(args.seeds):
            result, fingerprint = run_once(workload, seed, args.seconds,
                                           args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: wrong answers")
            entry["fingerprint"] = fingerprint
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in
                sorted(result["metrics"].items())), flush=True)
        summary = {}
        for name, vals in sorted(values.items()):
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:28s} median {median:12.6g} {units[name]:8s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag,
                  flush=True)
            summary[name] = {"unit": units[name], "median": median, "q1": q1,
                             "q3": q3, "spread": spread, "n": len(vals)}
        entry["workloads"][workload] = summary
    if args.record:
        trajectory = []
        if os.path.exists(args.record):
            with open(args.record) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(args.record, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
