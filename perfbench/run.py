#!/usr/bin/env python3
"""Build and run the storage-QoS simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scale_soft --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench with
CMake, runs the sqos_perfbench binary, checks that its result line carries
every metric BENCHMARK.json names with the right unit, and prints the
binary's output. The last line of standard output is the result object.
Exit status 0 means a result was printed; anything else means none was.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sqos_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def _run(cmd, timeout, capture):
    """Run cmd; on timeout or signal kill it and wait for it to end."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        raise
    finally:
        code = _child.returncode
        _child = None
    return code, out


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "dfs", "cluster.hpp")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None and not os.path.isfile(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "sqos_perfbench"]):
        code, _ = _run(cmd, BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))


def check_result(line, trace):
    """The result object must name every metric of its group, with its unit."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not a JSON object: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            fail("metric missing from the result: " + metric["name"])
        if got.get("unit") != metric["unit"]:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (metric["name"], got.get("unit"), metric["unit"]))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, out = _run(cmd, RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("sqos_perfbench exited with status %d" % code)
    lines = out.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
