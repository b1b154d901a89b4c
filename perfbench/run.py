#!/usr/bin/env python3
"""End-to-end benchmark of the mediated join service.

    python3 perfbench/run.py --workload warm|cold|tcp|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the libraries, the secmedd daemon and
the benchmark binary (perfbench/perfbench.cc) from source into
.bench_build/perfbench (Release), then runs one workload in a fresh
process. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ledger. `--workload all` runs the three
workloads one after another, each in its own process.

Metric definitions, workload shapes and the interface the benchmark
depends on are in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("warm", "cold", "tcp")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                           "perfbench", "secmedd"], stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def binary(name):
    for path in (os.path.join(BUILD, name),
                 os.path.join(BUILD, "secmed_tools", name)):
        if os.path.isfile(path):
            return path
    fail("built binary %s not found under %s" % (name, BUILD))


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in a fresh process.

    Returns the context lines, the result line and the parsed result.
    """
    run_dir = os.path.join(BUILD, "runs")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary("perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--secmedd", binary("secmedd"), "--run-dir", run_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s run failed (exit %d)" % (workload, done.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s run printed a malformed result" % workload)
    return lines[:-1], lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        context, line, _ = run_workload(args.workload, args.seed,
                                        args.seconds, args.trace)
        for extra in context:
            print(extra)
        print(line)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        context, _, result = run_workload(workload, args.seed, args.seconds,
                                          args.trace)
        for extra in context:
            print(extra)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
