#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 16 --trace 0

The first call compiles the parent project's voteopt library target, in its
default build type, and the load generator into .bench_build/; a Debug or
sanitizer build refuses to measure. Generated inputs are immutable and
cached per workload in .bench_cache/; everything a run writes (journal,
sketches, out-of-core scratch blocks) goes to a fresh directory under
.bench_work/ that is removed when the run ends. The last line of standard
output is the result object: {"correct", "attempted", "failed", "metrics"};
the line before it, "# meta {...}", records the seed, the stream hash, the
thread and connection counts, the build type and the host steal ticks.

setup_s is the mean over SETUP_PROCESSES fresh `perfbench setup` processes
of each one's median cold open, half of them before the run and half after.
The open time moves with the process (back to back, one seed gave 5.1 to
7.6 ms on light) while the opens inside one process agree, so no number of
opens in one process makes it steady.

--tiny shrinks every workload so the whole suite runs in seconds (smoke.py).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# A run must end within 180 s; the first one in a checkout may also build.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700
SETUP_PROCESSES = 8


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def call(argv, limit_s, capture=False):
    """Runs argv, with its output on stderr (or captured), within limit_s."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE if capture
                            else sys.stderr, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {limit_s} s: {' '.join(argv)}")
        return 1, ""
    return proc.returncode, out or ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        log(f"no voteopt sources under {ROOT}/src; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = call(["cmake", "-S", HERE, "-B", BUILD_DIR], BUILD_LIMIT_S)
        if code != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = call(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], BUILD_LIMIT_S)
    return code == 0


def ensure_inputs(workload, tiny):
    """The workload's input bundle, generated once and then only read."""
    cache = os.path.join(CACHE_DIR, workload + ("-tiny" if tiny else ""))
    if os.path.isfile(os.path.join(cache, ".done")):
        return cache
    staging = f"{cache}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    argv = [BINARY, "gen", "--workload", workload, "--cache", staging]
    code, _ = call(argv + (["--tiny"] if tiny else []), RUN_LIMIT_S)
    if code != 0:
        shutil.rmtree(staging, ignore_errors=True)
        return None
    open(os.path.join(staging, ".done"), "w").close()
    shutil.rmtree(cache, ignore_errors=True)
    os.rename(staging, cache)
    return cache


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    start = time.monotonic()
    cache = ensure_inputs(args.workload, args.tiny)
    if cache is None:
        log("input generation failed")
        return 2
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--cache", cache, "--work", work]
    if args.tiny:
        common.append("--tiny")
    setup = []

    def limit():
        return max(10, RUN_LIMIT_S - (time.monotonic() - start))

    def time_setup(processes):
        """Appends the median open of each of `processes` fresh processes."""
        for _ in range(processes):
            code, out = call([BINARY, "setup"] + common, limit(), capture=True)
            if code != 0:
                return False
            setup.append(float(out.split()[-1]))
        return True

    # A traced run reports per-layer metrics only, so no setup_s. Half the
    # setup processes go before the run and half after it, so they sample
    # the host over the same window as the run's reads and commits.
    half = 0 if args.trace else SETUP_PROCESSES // 2
    try:
        if not time_setup(half):
            return 1
        code, out = call([BINARY, "run", "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)] + common,
                         limit(), capture=True)
        if code == 0 and not time_setup(half):
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code == 0 and setup:
        log("setup_s per process: " + " ".join(f"{s:.6g}" for s in setup))
        lines = out.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        result["metrics"] = {
            "setup_s": {"value": statistics.fmean(setup), "unit": "s"},
            **result["metrics"]}
        lines[-1] = json.dumps(result)
        out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
