#!/usr/bin/env python3
"""Smoke self-test: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

Asserts for each run that it exits 0, that the last line is the result
object with exactly the keys correct/attempted/failed/metrics, that every
correctness gate passed with zero failed operations, and that the metrics
are exactly BENCHMARK.json's end-to-end list (untraced) or per-layer list
(traced), each with its declared unit and a finite value. Takes well under
a minute once the benchmark is built.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: a correctness gate failed")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}, "
                      f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}"
                      f", unexpected {sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} has value {value!r}")
        if name in expected and metric.get("unit") != expected[name]:
            errors.append(f"{where}: {name} unit {metric.get('unit')!r}, "
                          f"expected {expected[name]!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lists = {0: bench["end_to_end"], 1: bench["per_layer"]}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            expected = {m["name"]: m["unit"] for m in lists[trace]}
            found = check(workload, trace, expected)
            print(f"{workload:10} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
