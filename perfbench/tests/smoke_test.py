#!/usr/bin/env python3
"""Smoke check of the repo benchmark at tiny sizes.

    python3 perfbench/tests/smoke_test.py

Runs every workload of BENCHMARK.json, and serve, through run.py with
--scale 0.001 and one second of measurement, untraced and traced, and
asserts that:
  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, outputs verified and none failed;
  - every end-to-end metric (untraced) or per-layer metric (traced) of
    BENCHMARK.json is printed once, with its unit and a finite value;
  - the results file carries the host stamp, and the trace file parses
    as Chrome trace-event JSON with id/parent/group on every span;
  - run.py exits nonzero without a result line when only BENCHMARK.json
    and perfbench/ are present.
Exits 0 when every check passes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out", "smoke")
HOST_KEYS = {"nproc", "llc_bytes", "stream_gb_s", "compiler", "build_type",
             "git_sha", "scale"}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.001", "--out", OUT]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    tag = "%s trace=%d" % (workload, trace)
    check(r.returncode == 0, tag + ": exit code %d\n%s" % (r.returncode,
                                                          r.stderr[-2000:]))
    if r.returncode != 0:
        return
    result = json.loads(r.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result keys")
    check(result["correct"] is True, tag + ": outputs did not verify")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          tag + ": attempted/failed")
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in want),
          tag + ": metric names differ from BENCHMARK.json")
    for m in want:
        v = got.get(m["name"], {})
        check(v.get("unit") == m["unit"], tag + ": unit of " + m["name"])
        check(isinstance(v.get("value"), (int, float))
              and math.isfinite(v["value"]), tag + ": value of " + m["name"])
    stem = os.path.join(OUT, "%s-seed7%s" % (workload,
                                             "-trace" if trace else ""))
    stamp = json.load(open(stem + ".json"))
    check(HOST_KEYS <= set(stamp["host"]), tag + ": host stamp keys")
    if trace:
        events = json.load(open(stem + ".trace.json"))["traceEvents"]
        check(len(events) > 0, tag + ": empty trace")
        for e in events:
            ok = (e.get("ph") == "X" and "ts" in e and "dur" in e
                  and {"id", "parent", "group"} <= set(e.get("args", {})))
            if not ok:
                check(False, tag + ": malformed span %r" % e)
                break


def run_without_sources():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "fib", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=bare, capture_output=True, text=True,
                       env=env, timeout=180)
    check(r.returncode != 0, "bare checkout: exit code 0")
    check('"metrics"' not in r.stdout, "bare checkout: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    # serve is runnable but outside the gate (see perfbench/README.md).
    names = [w["name"] for w in spec["workloads"]]
    for name in names + [n for n in ("serve",) if n not in names]:
        for trace in (0, 1):
            run(name, trace)
    run_without_sources()
    print("smoke: %s" % ("FAILED (%d)" % len(failures) if failures
                         else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
