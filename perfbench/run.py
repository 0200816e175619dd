#!/usr/bin/env python3
"""Build and run the MAGMA benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the library sources
of this checkout together with the benchmark driver (perfbench/src) into
.bench_build/perfbench; later calls only re-check the build. The driver
runs the workload with the parameters perfbench/workloads.json gives it,
checks its outputs, and prints its metrics. This script checks that the
metric names and units are the ones BENCHMARK.json declares, and prints
the result JSON as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, where a layer a workload does not exercise reads 0 (the
"not_exercised" lists in workloads.json).

Exits non-zero, without printing a result, when the build fails or the
output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "magma_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build; compiler output goes to stderr."""
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, env=env) != 0:
        fail("build failed")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(BENCH_DIR, "workloads.json"))
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail("unknown workload %r" % args.workload)
    seed = config["default_seed"] if args.seed is None else args.seed

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    for key, value in workload["params"].items():
        cmd += ["--set", "%s=%s" % (key, value)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("MAGMA_METRICS", "MAGMA_THREADS")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        fail("workload run exited with status %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload run printed no result")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = result["metrics"]
    if args.trace:
        for name in workload["not_exercised"]:
            if name in metrics:
                fail("%s is listed as not exercised but was measured" % name)
            unit = next(m["unit"] for m in declared if m["name"] == name)
            metrics[name] = {"value": 0, "unit": unit}
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(want) - set(got)),
                                sorted(k for k in got if want.get(k) !=
                                       got[k])))
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail("%s has no finite value" % name)
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
