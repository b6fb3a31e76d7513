#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload fib|cilksort|heat|serve \
        --seed N --seconds S --trace 0|1 [--scale X]

Configures and builds perfbench/ (the numaws sources plus the harness,
optimized) into $CARGO_TARGET_DIR/perfbench, default .bench_build, then
runs one measurement. The last stdout line is the result object; results
and trace files go to .bench_out/. Exits nonzero, printing no result, if
the library sources are missing or the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        fail("numaws sources not found next to perfbench/")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["fib", "cilksort", "heat", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size multiplier in (0, 1]; tests only")
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = ap.parse_args()

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", repr(args.scale), "--out", args.out,
           "--git-sha", git_sha()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("run failed with exit code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
