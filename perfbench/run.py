#!/usr/bin/env python3
"""ProRace benchmark: offline analysis cost and service latency.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload apps-p10000|fleet-open \
        --seed N --seconds S --trace 0|1

Builds the analyzer and the benchmark program from the checkout's
sources (Release, into $CARGO_TARGET_DIR or .bench_build), records the
workload's traces from the seed (the set-up, repeated and timed),
analyzes them for S seconds, checks every report, and prints one JSON
result object as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Exits
non-zero without a result when anything fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apps-p10000", "fleet-open")
# Hard wall-clock limits of the child steps, in seconds.
BUILD_TIMEOUT = 840
STEP_TIMEOUT = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    """Run one child to completion; returns its stdout lines."""
    # Address-space randomization moves the analyzer's hash tables and
    # shadow pages between runs, which alone shifts analysis times by
    # ~10%; run the children with a fixed layout when the host allows.
    setarch = shutil.which("setarch")
    if setarch:
        cmd = [setarch, os.uname().machine, "-R"] + cmd
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("exit code %d: %s" % (proc.returncode, " ".join(cmd)))
    return out.splitlines()


def build():
    """Configure once, then (re)build the benchmark; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("analyzer sources (src/) not found next to perfbench/")
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    ninja = shutil.which("ninja")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if ninja:
            cmd += ["-G", "Ninja"]
        with open(os.devnull, "w") as quiet:
            if subprocess.call(cmd, stdout=quiet, timeout=BUILD_TIMEOUT):
                fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    with open(os.devnull, "w") as quiet:
        if subprocess.call(cmd, stdout=quiet, timeout=BUILD_TIMEOUT):
            fail("build failed")
    return binary


def last_json(lines, what):
    if not lines:
        fail("no output from " + what)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("unparseable result from %s: %r" % (what, lines[-1]))


def record(binary, workload, seed, work):
    """The set-up: record (repeatedly) and save the workload's traces."""
    lines = run_step([binary, "record", "--workload", workload,
                      "--seed", str(seed), "--out", work],
                     STEP_TIMEOUT)
    for line in lines[:-1]:
        print(line)
    return last_json(lines, "set-up")


def measure(binary, workload, seed, work, seconds, trace):
    spans = os.path.join(os.path.dirname(work),
                         "spans-%s-seed%d.jsonl" % (workload, seed))
    lines = run_step([binary, "measure", "--workload", workload,
                      "--seed", str(seed), "--in", work,
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--spans", spans], STEP_TIMEOUT)
    for line in lines[:-1]:
        print(line)
    return last_json(lines, "measurement")


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result object, set-up object)."""
    binary = build()
    work = os.path.join(build_dir(), "work-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = record(binary, workload, seed, work)
        result = measure(binary, workload, seed, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["attempted"] += setup["attempted"]
    result["failed"] += setup["failed"]
    result["correct"] = bool(result["correct"]) and setup["failed"] == 0
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup["setup_s"],
                                        "unit": "s"}
    return result, setup


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
