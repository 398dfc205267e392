#!/usr/bin/env python3
"""Build and run the SpotServe benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (the library straight from src/ plus the driver in
perfbench/src) into $CARGO_TARGET_DIR, or .bench_build when unset; later
calls rebuild only what changed.  The workload's parameters come from
perfbench/workloads.json.  The driver's result, checked against the metric
names BENCHMARK.json declares, is the last line printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build; returns the driver's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "spotbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(workloads)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[section]}

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode != 0:
        fail("driver exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s, "
             "unit mismatches %s" % (
                 section, sorted(set(expected) - set(got)),
                 sorted(set(got) - set(expected)),
                 sorted(n for n in set(got) & set(expected)
                        if got[n] != expected[n])))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
