#!/usr/bin/env python3
"""Runs one workload N times with distinct seeds and reports the noise.

    python3 perfbench/spread.py --workload churn --runs 10

Seeds are 1..N. For every metric it prints the median, the quartiles, the
IQR and IQR divided by the median (quartiles as
statistics.quantiles(values, n=4) gives them). For every end-to-end metric,
setup_s included, it compares that spread with the metric's bound in
BENCHMARK.json and flags any that exceed it (FAIL) or a third of it (warn).
Exits 1 when any metric fails, or when a run is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: run failed (exit {proc.returncode})")
    return json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    bad = False
    for seed in range(1, args.runs + 1):
        result, wall = run_once(args.workload, seed, seconds, args.trace)
        ok = result["correct"] and result["failed"] == 0
        bad |= not ok
        shown = " ".join(f"{name}={metric['value']:.4g}"
                         for name, metric in result["metrics"].items()
                         if name in bounds)
        print(f"seed {seed}: wall {wall:.1f} s, attempted "
              f"{result['attempted']}, failed {result['failed']}, correct "
              f"{result['correct']}  {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace "
          f"{args.trace}")
    print(f"{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "FAIL"
                bad = True
            elif spread > bound / 3:
                flag = "warn"
        print(f"{name:32} {units[name]:>6} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
